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
gives only the largest of each, the same floats, with most spectral norms settled
by the screen of ``linalg.largest_spectral_norm``, and one bound on the Hermitian
defect Y(s, t)* - Y(t, s) over all of r.G, read off the basis below.

Multiplied out, both kernels are combinations of the same eight constant
matrices I, A, D, B, AD, AB, DB, ADB, where A = R^{-1}U*, D = R^{-2} and
B = U R^{-1}:

    Y(s, t) = 2 - conj(t1) A - s1 B + conj(t2) s1 AD + conj(t1) s2 DB - 2 conj(t2) s2 ADB,
    Z(l, m) = (1 - a A)(1 - d D)(1 - b B) + (1 - a' A)(1 - d' D)(1 - b' B)

with a = r conj(m2), d = conj(m1) l1, b = r l2, a' = conj(m1),
d' = r^2 conj(m2) l2 and b' = l1, each triple product expanded into its
eight terms.  :class:`KernelContext` caches the eight matrices as one
(8, n^2) array, so N kernel values are one (N, 8) @ (8, n^2) product.  The
right-hand side of the factorization is such a combination too, as
s_{U,R} (2 - s1 B) = R^{-1} (2 s2 B - s1), so the factorization check
computes no fraction.
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


def _combine(ctx: KernelContext, count: int, *coefs) -> np.ndarray:
    """The (count, n, n) stack of sum_k coefs[k] basis[k]; each coefs[k] is (count,) or a scalar."""
    c = np.empty((count, len(coefs)), dtype=complex)
    for k, coef in enumerate(coefs):
        c[:, k] = coef
    return (c @ ctx.basis).reshape(count, ctx.dim, ctx.dim)


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


# Z and Y on stacks already checked: the residuals call these, since a second
# membership test costs about 4 us per point in r.G.  The substituted points of
# substitution_residual lie in r.G by construction (roots l1 and r l2 in rD).
def _z(ctx: KernelContext, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    l1, l2 = lam[:, 0], lam[:, 1]
    m1, m2 = mu[:, 0].conj(), mu[:, 1].conj()
    r = ctx.r
    a, d, b = r * m2, m1 * l1, r * l2
    a_, d_, b_ = m1, r * r * m2 * l2, l1
    return _combine(
        ctx, len(lam), 2.0, -(a + a_), -(d + d_), -(b + b_),
        a * d + a_ * d_, a * b + a_ * b_, d * b + d_ * b_, -(a * d * b + a_ * d_ * b_),
    )


def _y(ctx: KernelContext, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    s1, s2 = s[:, 0], s[:, 1]
    t1, t2 = t[:, 0].conj(), t[:, 1].conj()
    return _combine(ctx, len(s), 2.0, -t1, 0.0, -s1, t2 * s1, 0.0, t1 * s2, -2.0 * t2 * s2)


@_on_pairs("rD x D")
def kernel_Z(ctx: KernelContext, lam, mu) -> np.ndarray:
    """Evaluate the skew-bidisc kernel Z at pairs (lam, mu) of points of rD x D."""
    return _z(ctx, lam, mu)


@_on_pairs("r.G")
def kernel_Y(ctx: KernelContext, s, t) -> np.ndarray:
    """Evaluate the collapsed kernel Y at pairs (s, t) of points of r.G."""
    return _y(ctx, s, t)


def _pi_t_r(lam: np.ndarray, r: float) -> np.ndarray:
    """pi(t_r(l)) = (l1 + r l2, l1 (r l2)) on an (N, 2) stack."""
    rl2 = r * lam[:, 1]
    return np.column_stack([lam[:, 0] + rl2, lam[:, 0] * rl2])


# The defect of each identity on checked stacks; a residual is its spectral norm.
def _substitution_defect(ctx: KernelContext, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    return _z(ctx, lam, mu) - _y(ctx, _pi_t_r(lam, ctx.r), _pi_t_r(mu, ctx.r))


def _factorization_defect(ctx: KernelContext, s, t) -> np.ndarray:
    """Y(s, t) minus (1/2) a_t* (1 - F_t* F_s) a_s at checked stacks, with a = 2 - s1 B, F = s_UR.

    F = (2 s2 R^{-1}U - s1)(2 R - s1 U)^{-1} and a = (2 R - s1 U) R^{-1}, so F a = R^{-1} (2 s2 B - s1)
    and, as B* = A, the right-hand side is the combination 2 - conj(t1) A - h D - s1 B
    + conj(t2) s1 AD + h AB + conj(t1) s2 DB - 2 conj(t2) s2 ADB with h = conj(t1) s1 / 2.
    :meth:`Resolvent.check_factors` tests the factors first, so NotInvertible names the same
    point as :func:`colligation.s_UR`.
    """
    ctx.check_factors(s)
    ctx.check_factors(t)
    s1, s2 = s[:, 0], s[:, 1]
    t1, t2 = t[:, 0].conj(), t[:, 1].conj()
    h = 0.5 * t1 * s1
    rhs = _combine(ctx, len(s), 2.0, -t1, -h, -s1, t2 * s1, h, t1 * s2, -2.0 * t2 * s2)
    return _y(ctx, s, t) - rhs


def _hermitian_bound(ctx: KernelContext) -> float:
    """Bound on ||Y(s, t)* - Y(t, s)|| over r.G (|s1| < 2r, |s2| < r^2): with d_A = A* - B,
    d_AD = (AD)* - DB and d_ADB = (ADB)* - ADB, Y(s, t)* - Y(t, s) is exactly
    -t1 d_A + conj(s1) d_A* + t2 conj(s1) d_AD - t1 conj(s2) d_AD* - 2 t2 conj(s2) d_ADB."""
    basis = ctx.basis.reshape(8, ctx.dim, ctx.dim)  # rows I, A, D, B, AD, AB, DB, ADB
    d_a, d_ad, d_adb = linalg.spectral_norm(basis[[1, 4, 7]].conj().swapaxes(1, 2) - basis[[3, 6, 7]])
    return float(4.0 * ctx.r * d_a + 4.0 * ctx.r**3 * d_ad + 2.0 * ctx.r**4 * d_adb)


@_on_pairs("rD x D")
def substitution_residual(ctx: KernelContext, lam, mu):
    """Spectral norm of Z(lam, mu) - Y(s, t), where s = pi(t_r(lam)), t = pi(t_r(mu))."""
    return linalg.spectral_norm(_substitution_defect(ctx, lam, mu))


@_on_pairs("r.G")
def factorization_residual(ctx: KernelContext, s, t):
    """Defect of the factorization of Y through the fundamental fraction."""
    return linalg.spectral_norm(_factorization_defect(ctx, s, t))


def residual_maxima(ctx: KernelContext, s, t, lam, mu) -> dict[str, float]:
    """The largest factorization residual over the pairs (s, t) of r.G and substitution
    residual over the pairs (lam, mu) of rD x D, 0.0 for none, and :func:`_hermitian_bound`.

    Each maximum equals, bit for bit, the max of the public residual's values on the same
    pairs.  Every stack is checked once, and :func:`linalg.largest_spectral_norm` takes each
    block's defects with the running maximum as its floor, so only the few defects that can
    still be the maximum get an eigenvalue computed.
    """
    s, t, _ = _pair_stacks(ctx, s, t, "r.G")
    lam, mu, _ = _pair_stacks(ctx, lam, mu, "rD x D")
    checks = {"factorization": (_factorization_defect, s, t),
              "substitution": (_substitution_defect, lam, mu)}
    worst = dict.fromkeys(checks, 0.0)
    for name, (defect, p, q) in checks.items():
        for b in linalg.blocks(len(p), ctx.dim):
            worst[name] = linalg.largest_spectral_norm(defect(ctx, p[b], q[b]), worst[name])
    return worst | {"hermitian_symmetry": _hermitian_bound(ctx)}
