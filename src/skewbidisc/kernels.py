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
:func:`factorization_residual`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .colligation import ROperator, s_UR
from .domains import in_bidisc, in_rG, in_skew_bidisc, pi_map, t_r
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


def kernel_Z(ctx: KernelContext, lam: Sequence[complex], mu: Sequence[complex]) -> np.ndarray:
    """Evaluate the skew-bidisc kernel Z at (lam, mu) in (rD x D)^2."""
    if not in_skew_bidisc(lam, ctx.r, margin=0.0):
        raise OutsideDomain(f"first point {tuple(lam)} is not in rD x D")
    if not in_skew_bidisc(mu, ctx.r, margin=0.0):
        raise OutsideDomain(f"second point {tuple(mu)} is not in rD x D")
    l1, l2 = complex(lam[0]), complex(lam[1])
    m1, m2 = complex(mu[0]), complex(mu[1])
    r = ctx.r
    eye = np.eye(ctx.dim)
    rinv = ctx.R.inv_matrix
    rinv2 = rinv @ rinv
    u = ctx.U
    uh = u.conj().T
    first = (
        (eye - r * m2.conjugate() * rinv @ uh)
        @ (eye - m1.conjugate() * l1 * rinv2)
        @ (eye - r * l2 * u @ rinv)
    )
    second = (
        (eye - m1.conjugate() * rinv @ uh)
        @ (eye - r * r * m2.conjugate() * l2 * rinv2)
        @ (eye - l1 * u @ rinv)
    )
    return first + second


def kernel_Y(ctx: KernelContext, s: Sequence[complex], t: Sequence[complex]) -> np.ndarray:
    """Evaluate the collapsed kernel Y at (s, t) in (r.G)^2."""
    if not in_rG(s, ctx.r, margin=0.0):
        raise OutsideDomain(f"first point {tuple(s)} is not in r.G")
    if not in_rG(t, ctx.r, margin=0.0):
        raise OutsideDomain(f"second point {tuple(t)} is not in r.G")
    s1, s2 = complex(s[0]), complex(s[1])
    t1, t2 = complex(t[0]), complex(t[1])
    eye = np.eye(ctx.dim)
    rinv = ctx.R.inv_matrix
    rinv2 = rinv @ rinv
    u = ctx.U
    uh = u.conj().T
    term1 = 2.0 * (eye - t2.conjugate() * s2 * rinv @ uh @ rinv2 @ u @ rinv)
    term2 = (t1.conjugate() * s2 * rinv2 - s1 * eye) @ (u @ rinv)
    term3 = (rinv @ uh) @ (t2.conjugate() * s1 * rinv2 - t1.conjugate() * eye)
    return term1 + term2 + term3


def substitution_residual(ctx: KernelContext, lam: Sequence[complex], mu: Sequence[complex]) -> float:
    """Spectral norm of Z(lam, mu) - Y(s, t) under the symmetrizing substitution."""
    s = pi_map(t_r(lam, ctx.r))
    t = pi_map(t_r(mu, ctx.r))
    return linalg.spectral_norm(kernel_Z(ctx, lam, mu) - kernel_Y(ctx, s, t))


def factorization_residual(ctx: KernelContext, s: Sequence[complex], t: Sequence[complex]) -> float:
    """Defect of the factorization of Y through the fundamental fraction."""
    y = kernel_Y(ctx, s, t)
    s1 = complex(s[0])
    t1 = complex(t[0])
    eye = np.eye(ctx.dim)
    urinv = ctx.U @ ctx.R.inv_matrix
    a_s = 2.0 * eye - s1 * urinv
    a_t = 2.0 * eye - t1 * urinv
    frac_s, frac_t = s_UR([s, t], ctx.U, ctx.R)
    rhs = 0.5 * a_t.conj().T @ (eye - frac_t.conj().T @ frac_s) @ a_s
    return linalg.spectral_norm(y - rhs)


def hermitian_symmetry_residual(ctx: KernelContext, s: Sequence[complex], t: Sequence[complex]) -> float:
    """Defect of Y(s, t)* = Y(t, s), a consequence of the factorization."""
    return linalg.spectral_norm(kernel_Y(ctx, s, t).conj().T - kernel_Y(ctx, t, s))


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
