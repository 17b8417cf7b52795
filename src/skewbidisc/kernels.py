"""Operator-valued kernels tied to a fixed (U, R) pair.

Two kernels appear.  The first lives on (rD x D)^2,

    Z(l, m) = (1 - r conj(m2) R^{-1}U*)(1 - conj(m1) l1 R^{-2})(1 - r l2 U R^{-1})
            + (1 - conj(m1) R^{-1}U*)(1 - r^2 conj(m2) l2 R^{-2})(1 - l1 U R^{-1}),

the second on (r.G)^2,

    Y(s, t) = 2 (1 - conj(t2) s2 R^{-1}U* R^{-2} U R^{-1})
            + (conj(t1) s2 R^{-2} - s1) U R^{-1}
            + R^{-1}U* (conj(t2) s1 R^{-2} - conj(t1)).

Substituting s = (l1 + r l2, r l1 l2) and t likewise from m turns Z into Y, and Y
factors through the fundamental fraction,

    Y(s, t) = (1/2) (2 - t1 U R^{-1})* (1 - t_{U,R}* s_{U,R}) (2 - s1 U R^{-1}),

both only up to E_U = R^{-1}(1 - U*U)R^{-1}, which vanishes for a unitary U: the
gaps are -(conj(m1) l1 + r^2 conj(m2) l2) E_U and (1/2) conj(t1) s1 E_U.
:func:`substitution_residual` and :func:`factorization_residual` measure them,
one pair of points giving a float and two (N, 2) stacks the (N,) values, as the
kernels give an (n, n) matrix or the (N, n, n) stack.  :func:`residual_maxima`
instead bounds each gap over its whole domain by 2 r^2 ||E_U||, plus a check of
the coefficients at sampled pairs, and the Hermitian defect Y(s, t)* - Y(t, s)
over all of r.G, all read off the basis below.

Multiplied out, both kernels are combinations of the same eight constant
matrices I, A, D, B, AD, AB, DB, ADB, where A = R^{-1}U*, D = R^{-2} and
B = U R^{-1}:

    Y(s, t) = 2 - conj(t1) A - s1 B + conj(t2) s1 AD + conj(t1) s2 DB - 2 conj(t2) s2 ADB,
    Z(l, m) = (1 - a A)(1 - d D)(1 - b B) + (1 - a' A)(1 - d' D)(1 - b' B)

with a = r conj(m2), d = conj(m1) l1, b = r l2, a' = conj(m1),
d' = r^2 conj(m2) l2 and b' = l1, each triple product expanded into its
eight terms.  :class:`KernelContext` caches the eight matrices as one
(8, n^2) array, so N kernel values are one (N, 8) @ (8, n^2) product of the
(N, 8) coefficients that ``_y_coefs`` or ``_z_coefs`` build.  The right-hand
side of the factorization is such a combination too, as
s_{U,R} (2 - s1 B) = R^{-1} (2 s2 B - s1), so the factorization check
computes no fraction.  The two sides of either identity then have the same
coefficients except on rows D and AB, where they differ by g and -g, and
basis_D - basis_AB = R^{-2} - R^{-1}U*U R^{-1} = E_U.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
import numpy as np

from . import linalg
from .colligation import Resolvent
from .domains import point_stack
from .errors import InvalidParams, ShapeMismatch


@dataclass(eq=False, frozen=True)
class KernelContext(Resolvent):
    """A unitary U and diagonal R of matching size."""

    def __post_init__(self):
        super().__post_init__()
        if not linalg.is_unitary(self.U, 1e-10):
            raise InvalidParams("U is not unitary within 1e-10")

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """The rows I, A, D, B, AD, AB, DB, ADB of the module docstring, flattened to (8, n^2)."""
        rinv = self.R.inv_matrix
        a, d, b = rinv @ self.U.conj().T, rinv @ rinv, self.urinv
        ad = a @ d
        mats = [np.eye(self.dim), a, d, b, ad, a @ b, d @ b, ad @ b]
        basis = np.stack(mats).reshape(8, -1)
        basis.flags.writeable = False  # computed once, shared by every kernel value
        return basis


def _coefs(count: int, *cols) -> np.ndarray:
    """The (count, 8) coefficients of the basis rows; each of the eight cols is (count,) or a scalar."""
    c = np.empty((count, 8), dtype=complex)
    for k, col in enumerate(cols):
        c[:, k] = col
    return c


def _combine(ctx: KernelContext, coefs: np.ndarray) -> np.ndarray:
    """The (N, n, n) stack of sum_k coefs[:, k] basis[k] for (N, 8) coefficients."""
    return (coefs @ ctx.basis).reshape(len(coefs), ctx.dim, ctx.dim)


def _pair_stacks(ctx: KernelContext, p, q, domain: str):
    """Two point arguments as paired (N, 2) stacks, every point checked, and whether they were one pair."""
    p, one = point_stack(p, ctx.r, domain)
    q, q_one = point_stack(q, ctx.r, domain)
    if one != q_one or len(p) != len(q):
        raise ShapeMismatch(f"{len(p)} points do not pair up with {len(q)}")
    return p, q, one


def _on_pairs(domain: str):
    """Lift a function of two checked (N, 2) point stacks to the public form.

    The lifted function takes one pair of points, giving the value at that
    pair, or two (N, 2) stacks, giving the N values stacked.  It checks every
    point with ``point_stack`` and evaluates in the blocks of ``linalg.blocks``.
    """

    def lift(stacked):
        @functools.wraps(stacked)
        def on_pairs(ctx: KernelContext, p, q):
            p, q, one = _pair_stacks(ctx, p, q, domain)
            parts = [stacked(ctx, p[b], q[b]) for b in linalg.blocks(len(p), ctx.dim)]
            out = np.concatenate(parts) if parts else stacked(ctx, p, q)
            return out[0] if one else out

        return on_pairs

    return lift


# The coefficients of Z and Y at stacks already checked: the residuals build these, since a
# second membership test costs about 4 us per point in r.G.  The substituted points of
# the substitution identity lie in r.G by construction (roots l1 and r l2 in rD).
def _z_coefs(r: float, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    l1, l2 = lam[:, 0], lam[:, 1]
    m1, m2 = mu[:, 0].conj(), mu[:, 1].conj()
    a, d, b = r * m2, m1 * l1, r * l2
    a_, d_, b_ = m1, r * r * m2 * l2, l1
    return _coefs(
        len(lam), 2.0, -(a + a_), -(d + d_), -(b + b_),
        a * d + a_ * d_, a * b + a_ * b_, d * b + d_ * b_, -(a * d * b + a_ * d_ * b_),
    )


def _y_coefs(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    s1, s2 = s[:, 0], s[:, 1]
    t1, t2 = t[:, 0].conj(), t[:, 1].conj()
    return _coefs(len(s), 2.0, -t1, 0.0, -s1, t2 * s1, 0.0, t1 * s2, -2.0 * t2 * s2)


def _rhs_coefs(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(1/2) a_t* (1 - F_t* F_s) a_s with a = 2 - s1 B and F = s_UR, written out on its own.

    F = (2 s2 R^{-1}U - s1)(2 R - s1 U)^{-1} and a = (2 R - s1 U) R^{-1}, so F a = R^{-1} (2 s2 B - s1)
    and, as B* = A, this is 2 - conj(t1) A - h D - s1 B + conj(t2) s1 AD + h AB + conj(t1) s2 DB
    - 2 conj(t2) s2 ADB with h = conj(t1) s1 / 2.
    """
    s1, s2 = s[:, 0], s[:, 1]
    t1, t2 = t[:, 0].conj(), t[:, 1].conj()
    h = 0.5 * t1 * s1
    return _coefs(len(s), 2.0, -t1, -h, -s1, t2 * s1, h, t1 * s2, -2.0 * t2 * s2)


@_on_pairs("rD x D")
def kernel_Z(ctx: KernelContext, lam, mu) -> np.ndarray:
    """Evaluate the skew-bidisc kernel Z at pairs (lam, mu) of points of rD x D."""
    return _combine(ctx, _z_coefs(ctx.r, lam, mu))


@_on_pairs("r.G")
def kernel_Y(ctx: KernelContext, s, t) -> np.ndarray:
    """Evaluate the collapsed kernel Y at pairs (s, t) of points of r.G."""
    return _combine(ctx, _y_coefs(s, t))


def _pi_t_r(lam: np.ndarray, r: float) -> np.ndarray:
    """pi(t_r(l)) = (l1 + r l2, l1 (r l2)) on an (N, 2) stack."""
    rl2 = r * lam[:, 1]
    return np.column_stack([lam[:, 0] + rl2, lam[:, 0] * rl2])


# Each identity at checked stacks: the (N, 8) coefficients of its two sides, and the g of
# the closed form g E_U of their difference, computed from the points alone.
def _substitution(ctx: KernelContext, lam: np.ndarray, mu: np.ndarray):
    """Z(lam, mu) and Y(pi(t_r(lam)), pi(t_r(mu))), and g = -(conj(m1) l1 + r^2 conj(m2) l2)."""
    r = ctx.r
    g = -(mu[:, 0].conj() * lam[:, 0] + r * r * mu[:, 1].conj() * lam[:, 1])
    return _z_coefs(r, lam, mu), _y_coefs(_pi_t_r(lam, r), _pi_t_r(mu, r)), g


def _factorization(ctx: KernelContext, s: np.ndarray, t: np.ndarray):
    """Y(s, t) and the right-hand side of its factorization, and g = conj(t1) s1 / 2.

    :meth:`Resolvent.check_factors` tests the factors first, so NotInvertible names the same
    point as :func:`colligation.s_UR`.
    """
    ctx.check_factors(s)
    ctx.check_factors(t)
    return _y_coefs(s, t), _rhs_coefs(s, t), 0.5 * t[:, 0].conj() * s[:, 0]


def _defect(identity, ctx: KernelContext, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The (N, n, n) defect, left side minus right side, of an identity at checked stacks."""
    left, right, _ = identity(ctx, p, q)
    return _combine(ctx, left) - _combine(ctx, right)


@_on_pairs("rD x D")
def substitution_residual(ctx: KernelContext, lam, mu):
    """Spectral norm of Z(lam, mu) - Y(s, t), where s = pi(t_r(lam)), t = pi(t_r(mu))."""
    return linalg.spectral_norm(_defect(_substitution, ctx, lam, mu))


@_on_pairs("r.G")
def factorization_residual(ctx: KernelContext, s, t):
    """Defect of the factorization of Y through the fundamental fraction."""
    return linalg.spectral_norm(_defect(_factorization, ctx, s, t))


def _domain_bounds(ctx: KernelContext) -> tuple[float, float]:
    """2 r^2 ||E_U|| and a bound on ||Y(s, t)* - Y(t, s)|| over r.G, from four norms in one call.

    E_U = basis_D - basis_AB.  On r.G, |s1| < 2r and |s2| < r^2; with d_A = A* - B,
    d_AD = (AD)* - DB and d_ADB = (ADB)* - ADB, Y(s, t)* - Y(t, s) is exactly
    -t1 d_A + conj(s1) d_A* + t2 conj(s1) d_AD - t1 conj(s2) d_AD* - 2 t2 conj(s2) d_ADB,
    so 4r ||d_A|| + 4r^3 ||d_AD|| + 2r^4 ||d_ADB|| bounds it.
    """
    _, a, d, b, ad, ab, db, adb = ctx.basis.reshape(8, ctx.dim, ctx.dim)
    gaps = [a.conj().T - b, ad.conj().T - db, adb.conj().T - adb, d - ab]
    d_a, d_ad, d_adb, e_u = linalg.spectral_norm(np.stack(gaps))
    r = ctx.r
    return float(2.0 * r * r * e_u), float(4.0 * r * d_a + 4.0 * r**3 * d_ad + 2.0 * r**4 * d_adb)


def residual_maxima(ctx: KernelContext, s, t, lam, mu) -> dict[str, float]:
    """Bounds on the factorization defect over r.G and the substitution defect over rD x D
    that every public residual at the pairs (s, t) and (lam, mu) also meets, and the
    Hermitian bound of :func:`_domain_bounds`.

    An identity's defect is sum_j gap_j basis_j, gap = left - right its two sides'
    coefficients.  In closed form gap is g on row D, -g on row AB and 0 elsewhere, which
    gives g E_U, and |g| < 2 r^2 on the domain (|t1 s1| / 2 < 2 r^2 on r.G; |conj(m1) l1|
    and |r^2 conj(m2) l2| are below r^2 on rD x D).  So each reported value is

        2 r^2 ||E_U|| + max over the pairs of sum_j (|gap_j - closed_j| + 16 eps (|left_j| + |right_j|)) ||basis_j||_F

    (no pairs, no max).  The code term |gap_j - closed_j| is 0.0 for right factorization
    coefficients and the roundoff of the substitution's products (below 1e-15 on rD x D);
    a wrong coefficient adds its error times the size of its row.  The roundoff term bounds what
    forming the two sides with :func:`_combine` adds: each entry of ``coefs @ basis`` is
    an inner product of eight complex terms, within sqrt(2) gamma_10 sum_j |c_j| |entry_j|
    of the exact one (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.6),
    gamma_10 = 10u / (1 - 10u) with u = eps / 2, so below 7.1 eps; as the spectral norm is
    at most the Frobenius norm, one side adds at most 7.1 eps sum_j |c_j| ||basis_j||_F.
    Subtracting the sides, and the coefficients for gap, adds eps more, so both sides
    together add at most 8.1 eps sum_j (|left_j| + |right_j|) ||basis_j||_F.  16 eps is
    about twice that; the other half is margin for the roundoff of the computed spectral
    norms, which the tests check over dims up to (12, 12) and U scaled up to 1.05.

    Every stack is checked once, and :func:`_factorization` tests the factors.  No matrix is
    formed from the pairs; each context costs four n x n norms.
    """
    s, t, _ = _pair_stacks(ctx, s, t, "r.G")
    lam, mu, _ = _pair_stacks(ctx, lam, mu, "rD x D")
    domain, hermitian = _domain_bounds(ctx)
    row_norms = np.linalg.norm(ctx.basis, axis=1)
    roundoff = 16.0 * np.finfo(float).eps
    bounds = {}
    sides = {"factorization": _factorization(ctx, s, t), "substitution": _substitution(ctx, lam, mu)}
    for name, (left, right, g) in sides.items():
        code = left - right
        code[:, 2] -= g
        code[:, 5] += g
        per_pair = (np.abs(code) + roundoff * (np.abs(left) + np.abs(right))) @ row_norms
        bounds[name] = domain + float(per_pair.max(initial=0.0))
    return bounds | {"hermitian_symmetry": hermitian}
