"""Operator-valued kernels tied to a fixed (U, R) pair.

Two kernels appear.  The first lives on (rD x D)^2,

    Z(l, m) = (1 - r conj(m2) R^{-1}U*)(1 - conj(m1) l1 R^{-2})(1 - r l2 U R^{-1})
            + (1 - conj(m1) R^{-1}U*)(1 - r^2 conj(m2) l2 R^{-2})(1 - l1 U R^{-1}),

the second on (r.G)^2,

    Y(s, t) = 2 (1 - conj(t2) s2 R^{-1}U* R^{-2} U R^{-1})
            + (conj(t1) s2 R^{-2} - s1) U R^{-1}
            + R^{-1}U* (conj(t2) s1 R^{-2} - conj(t1)).

Substituting s = (l1 + r l2, r l1 l2) and t likewise from m turns Z into Y
exactly; and Y factors through the fundamental fraction:

    Y(s, t) = (1/2) (2 - t1 U R^{-1})* (1 - t_{U,R}* s_{U,R}) (2 - s1 U R^{-1}).

Both identities are exercised by :func:`substitution_residual` and
:func:`factorization_residual`.  Like ``s_UR``, the kernels and the residuals
take one pair of points, giving an (n, n) matrix or a float, or two (N, 2)
stacks, giving the (N, n, n) or (N,) stack of values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .colligation import ROperator, s_UR
from .domains import in_bidisc, pi_map, point_stack, t_r
from .errors import InvalidParams, OutsideDomain, ShapeMismatch


@dataclass(eq=False, frozen=True)
class KernelContext:
    """A unitary U and diagonal R of matching size, with r read off R."""

    U: np.ndarray
    R: ROperator
    r: float = field(init=False)

    def __post_init__(self):
        u = linalg._as_square(self.U, "U")
        if u.shape != self.R.matrix.shape:
            raise ShapeMismatch(
                f"U has shape {u.shape}, R has shape {self.R.matrix.shape}"
            )
        if not linalg.is_unitary(u, 1e-10):
            raise InvalidParams("U is not unitary within 1e-10")
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "r", self.R.r)

    @property
    def dim(self) -> int:
        return self.U.shape[0]


def _on_pairs(domain: str):
    """Lift a function of two checked (N, 2) point stacks to the public form.

    The lifted function takes one pair of points, giving the value at that
    pair, or two (N, 2) stacks, giving the N values stacked.  It checks every
    point with ``point_stack`` and evaluates in the blocks of ``linalg.blocks``.
    """

    def lift(stacked):
        @functools.wraps(stacked)
        def on_pairs(ctx: KernelContext, p, q):
            p, one = point_stack(p, ctx.r, domain)
            q, q_one = point_stack(q, ctx.r, domain)
            if one != q_one or len(p) != len(q):
                raise ShapeMismatch(f"{len(p)} points do not pair up with {len(q)}")
            parts = [stacked(ctx, p[b], q[b]) for b in linalg.blocks(len(p), ctx.dim)]
            out = np.concatenate(parts) if parts else stacked(ctx, p, q)
            return out[0] if one else out

        return on_pairs

    return lift


@_on_pairs("rD x D")
def kernel_Z(ctx: KernelContext, lam, mu) -> np.ndarray:
    """Evaluate the skew-bidisc kernel Z at pairs (lam, mu) of points of rD x D."""
    l1, l2 = lam[:, 0, None, None], lam[:, 1, None, None]
    m1, m2 = mu[:, 0, None, None].conj(), mu[:, 1, None, None].conj()
    r = ctx.r
    eye = np.eye(ctx.dim)
    rinv = ctx.R.inv_matrix
    rinv2 = rinv @ rinv
    urinv = ctx.U @ rinv
    rinv_uh = rinv @ ctx.U.conj().T
    first = (eye - r * m2 * rinv_uh) @ (eye - m1 * l1 * rinv2) @ (eye - r * l2 * urinv)
    second = (eye - m1 * rinv_uh) @ (eye - r * r * m2 * l2 * rinv2) @ (eye - l1 * urinv)
    return first + second


# Y on stacks already checked: the r.G residuals reuse it, since a second
# membership test in r.G costs about 4 us per point.
def _y(ctx: KernelContext, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    s1, s2 = s[:, 0, None, None], s[:, 1, None, None]
    t1, t2 = t[:, 0, None, None].conj(), t[:, 1, None, None].conj()
    eye = np.eye(ctx.dim)
    rinv = ctx.R.inv_matrix
    rinv2 = rinv @ rinv
    u = ctx.U
    uh = u.conj().T
    term1 = 2.0 * (eye - t2 * s2 * (rinv @ uh @ rinv2 @ u @ rinv))
    term2 = (t1 * s2 * rinv2 - s1 * eye) @ (u @ rinv)
    term3 = (rinv @ uh) @ (t2 * s1 * rinv2 - t1 * eye)
    return term1 + term2 + term3


@_on_pairs("r.G")
def kernel_Y(ctx: KernelContext, s, t) -> np.ndarray:
    """Evaluate the collapsed kernel Y at pairs (s, t) of points of r.G."""
    return _y(ctx, s, t)


@_on_pairs("rD x D")
def substitution_residual(ctx: KernelContext, lam, mu):
    """Spectral norm of Z(lam, mu) - Y(s, t), where s = pi(t_r(lam)), t = pi(t_r(mu))."""
    s = [pi_map(t_r(z, ctx.r)) for z in lam.tolist()]
    t = [pi_map(t_r(z, ctx.r)) for z in mu.tolist()]
    return linalg.spectral_norm(kernel_Z(ctx, lam, mu) - kernel_Y(ctx, s, t))


@_on_pairs("r.G")
def factorization_residual(ctx: KernelContext, s, t):
    """Defect of the factorization of Y through the fundamental fraction."""
    eye = np.eye(ctx.dim)
    urinv = ctx.U @ ctx.R.inv_matrix
    a_s = 2.0 * eye - s[:, 0, None, None] * urinv
    a_t = 2.0 * eye - t[:, 0, None, None] * urinv
    frac_s, frac_t = s_UR(s, ctx.U, ctx.R), s_UR(t, ctx.U, ctx.R)
    rhs = 0.5 * a_t.conj().swapaxes(1, 2) @ (eye - frac_t.conj().swapaxes(1, 2) @ frac_s) @ a_s
    return linalg.spectral_norm(_y(ctx, s, t) - rhs)


@_on_pairs("r.G")
def hermitian_symmetry_residual(ctx: KernelContext, s, t):
    """Defect of Y(s, t)* = Y(t, s), a consequence of the factorization."""
    return linalg.spectral_norm(_y(ctx, s, t).conj().swapaxes(1, 2) - _y(ctx, t, s))


def bidisc_model_residual(
    u1_eval: Callable[[Sequence[complex]], np.ndarray],
    u2_eval: Callable[[Sequence[complex]], np.ndarray],
    phi_eval: Callable[[Sequence[complex]], complex],
    lam: Sequence[complex],
    mu: Sequence[complex],
) -> float:
    """Defect of the two-disc model identity at a pair of bidisc points.

    Measures |1 - conj(phi(mu)) phi(lam)
    - (1 - conj(mu1) lam1) <u1(lam), u1(mu)> - (1 - conj(mu2) lam2) <u2(lam), u2(mu)>|.
    """
    if not in_bidisc(lam, margin=0.0):
        raise OutsideDomain(f"first point {tuple(lam)} is not in the bidisc")
    if not in_bidisc(mu, margin=0.0):
        raise OutsideDomain(f"second point {tuple(mu)} is not in the bidisc")
    l1, l2 = complex(lam[0]), complex(lam[1])
    m1, m2 = complex(mu[0]), complex(mu[1])
    lhs = 1.0 - complex(phi_eval(mu)).conjugate() * complex(phi_eval(lam))
    u1_l = linalg.as_vector(u1_eval(lam), "u1(lam)")
    u1_m = linalg.as_vector(u1_eval(mu), "u1(mu)")
    u2_l = linalg.as_vector(u2_eval(lam), "u2(lam)")
    u2_m = linalg.as_vector(u2_eval(mu), "u2(mu)")
    rhs = (1.0 - m1.conjugate() * l1) * np.vdot(u1_m, u1_l) + (
        1.0 - m2.conjugate() * l2
    ) * np.vdot(u2_m, u2_l)
    return abs(lhs - rhs)
