"""Unitary colligations and the operator-valued fraction attached to them.

A colligation packages the block operator

    L = [[a,      <., beta>],
         [gamma,  D        ]]   on  C (+) M,   M = C^{d1} (+) C^{d2},

together with a unitary U on M and the positive diagonal

    R = diag(1, ..., 1, r, ..., r)      (d1 ones, d2 copies of r).

The central object is the fraction

    s_{U,R} = (2 s2 R^{-1} U - s1) (2 R - s1 U)^{-1},

a strict contraction for every point s of the scaled symmetrized bidisc
r.G.  Its classical one-variable relative is s_T = (2 s2 T - s1)(2 - s1 T)^{-1}.

Inner products follow the physics-free convention <x, y> = sum x_i conj(y_i),
which is ``np.vdot(y, x)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import linalg
from .domains import check_r, fq_disc, in_G, point_stack, scale_psi_inv
from .errors import (
    InvalidParams,
    NotInvertible,
    OutsideDomain,
    ShapeMismatch,
    SingularMatrix,
)


@dataclass(frozen=True)
class SubspaceSplit:
    """Dimensions of the decomposition M = C^{d1} (+) C^{d2}, both at least 1."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise InvalidParams(f"split ({self.d1}, {self.d2}) must have both parts >= 1")

    @property
    def total(self) -> int:
        return self.d1 + self.d2


@dataclass(eq=False, frozen=True)
class ROperator:
    """diag(1_{d1}, r 1_{d2}) and its exact inverse, both read-only, for 0 < r < 1."""

    split: SubspaceSplit
    r: float

    def __post_init__(self):
        object.__setattr__(self, "r", check_r(self.r))

    @cached_property
    def matrix(self) -> np.ndarray:
        d = np.concatenate([np.ones(self.split.d1), np.full(self.split.d2, self.r)])
        matrix = np.diag(d.astype(complex))
        matrix.flags.writeable = False  # inv_matrix is computed from it
        return matrix

    @cached_property
    def inv_matrix(self) -> np.ndarray:
        inv = np.diag(1.0 / np.diag(self.matrix))
        inv.flags.writeable = False  # computed once, shared by every reader
        return inv


build_R = ROperator  # the name the package's callers and the acceptance tests use


@dataclass(eq=False, frozen=True)
class Resolvent:
    """The constant data of s_{U,R}: a read-only copy of a square U, and R of its size.

    ``urinv`` and ``u_norm`` are computed from the copy once, on first use; ``dim``
    and ``r`` are read off U and R.  :meth:`check_factors`, :meth:`factors` and
    :meth:`fractions` take (N, 2) point stacks that the caller has already checked
    with ``domains.point_stack``.  Every type that holds a (U, R) pair subclasses this.
    """

    U: np.ndarray
    R: ROperator

    def __post_init__(self):
        u = linalg.as_square(self.U, "U")
        if u.shape != self.R.matrix.shape:
            raise ShapeMismatch(f"U has shape {u.shape}, R has shape {self.R.matrix.shape}")
        u = u.copy()
        u.flags.writeable = False  # the cached values are computed from it
        object.__setattr__(self, "U", u)

    @property
    def dim(self) -> int:
        return self.U.shape[0]

    @property
    def r(self) -> float:
        return self.R.r

    @cached_property
    def urinv(self) -> np.ndarray:
        """U R^{-1}, read-only."""
        urinv = self.U @ self.R.inv_matrix
        urinv.flags.writeable = False
        return urinv

    @cached_property
    def u_norm(self) -> float:
        """sqrt of the largest row sum of |U^H U|, a bound on ||U||_2 (rho(A) <= ||A||_inf)."""
        return float(np.sqrt(np.max(np.sum(np.abs(self.U.conj().T @ self.U), axis=1))))

    def check_factors(self, stack: np.ndarray, first: int = 0) -> None:
        """Test the factors 2 R - s1 U at a checked stack as :func:`linalg.inverse` would.

        As R = diag(1, r), sigma_min >= 2 r - |s1| ||U|| and sigma_max <= 2 + |s1| ||U|| (Weyl);
        where the first is at least 2 ``linalg.RCOND`` times the second (the 2 absorbs roundoff)
        the factor passes, and only the others (non-unitary U, |s1| near 2 r) are tested by SVD.
        NotInvertible names the first failing point and its index, counted from ``first``
        for a block of a larger stack, as if every factor had been tested.
        """
        reach = np.abs(stack[:, 0]) * self.u_norm
        unsettled = np.flatnonzero(2.0 * self.r - reach < 2.0 * linalg.RCOND * (2.0 + reach))
        if unsettled.size:
            den = 2.0 * self.R.matrix - stack[unsettled, 0, None, None] * self.U
            try:
                linalg.inverse(den, first + unsettled)
            except SingularMatrix as exc:
                z1, z2 = stack[exc.index - first].tolist()
                raise NotInvertible(f"resolvent factor singular at ({z1}, {z2}) in r.G: {exc}") from exc

    def factors(self, stack: np.ndarray, first: int = 0) -> np.ndarray:
        """The factors 2 R - s1 U at a checked stack, each passed by :meth:`check_factors`."""
        self.check_factors(stack, first)
        return 2.0 * self.R.matrix - stack[:, 0, None, None] * self.U

    def fractions(self, stack: np.ndarray) -> np.ndarray:
        """The (N, n, n) fractions s_{U,R} at a checked stack."""
        s1, s2 = stack[:, 0, None, None], stack[:, 1, None, None]
        num = 2.0 * s2 * (self.R.inv_matrix @ self.U) - s1 * np.eye(self.dim)
        return num @ np.linalg.inv(self.factors(stack))


@dataclass(eq=False, frozen=True)
class Colligation:
    """A realization datum (a, beta, gamma, D) on C (+) C^{d1+d2} plus U and r.

    Construction checks r, shapes and finiteness, and keeps read-only copies
    of beta, gamma, D and U.  Whether the block matrix is actually unitary is a
    question for :func:`validate_colligation`, which reports rather than raises,
    so that defective inputs can be examined.  The fields are frozen, so the
    cached R always matches r; a variant is made with ``dataclasses.replace``.
    """

    r: float
    split: SubspaceSplit
    a: complex
    beta: np.ndarray
    gamma: np.ndarray
    D: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", check_r(self.r))
        object.__setattr__(self, "a", complex(self.a))
        for name, coerce in [("beta", linalg.as_vector), ("gamma", linalg.as_vector),
                             ("D", linalg.as_square), ("U", linalg.as_square)]:
            block = coerce(getattr(self, name), name).copy()
            block.flags.writeable = False  # a later write cannot change a checked colligation
            object.__setattr__(self, name, block)
        n = self.split.total
        shapes = self.beta.shape, self.gamma.shape, self.D.shape, self.U.shape
        if shapes != ((n,), (n,), (n, n), (n, n)):
            raise ShapeMismatch(
                f"blocks do not all live on C^{n}: beta {self.beta.shape}, "
                f"gamma {self.gamma.shape}, D {self.D.shape}, U {self.U.shape}"
            )

    @property
    def dim(self) -> int:
        return self.split.total

    @cached_property
    def R(self) -> ROperator:
        return build_R(self.split, self.r)

    def l_matrix(self) -> np.ndarray:
        """The block matrix [[a, row of conj(beta)], [gamma, D]]."""
        n = self.dim
        L = np.zeros((n + 1, n + 1), dtype=complex)
        L[0, 0] = self.a
        L[0, 1:] = self.beta.conj()
        L[1:, 0] = self.gamma
        L[1:, 1:] = self.D
        return L

    @classmethod
    def from_l_matrix(cls, L: np.ndarray, r: float, split: SubspaceSplit, U) -> Colligation:
        """The colligation whose :meth:`l_matrix` is L, with the given r, split and U."""
        return cls(r=r, split=split, a=L[0, 0], beta=L[0, 1:].conj(), gamma=L[1:, 0], D=L[1:, 1:], U=U)


def random_colligation(split: SubspaceSplit, r: float, seed: int) -> Colligation:
    """A valid colligation drawn from Haar measure; useful for campaigns."""
    rng = np.random.Generator(np.random.Philox(seed))
    L = linalg.haar_unitary(split.total + 1, rng)
    return Colligation.from_l_matrix(L, r, split, linalg.haar_unitary(split.total, rng))


def s_UR(s, U: np.ndarray, R: ROperator) -> np.ndarray:
    """The fraction (2 s2 R^{-1} U - s1)(2 R - s1 U)^{-1} at points of r.G.

    ``s`` is one point (s1, s2), giving an (n, n) matrix, or a stack of
    points of shape (N, 2), giving the (N, n, n) stack of fractions.

    Raises OutsideDomain at the first point off the open domain and
    NotInvertible if a resolvent factor fails, which for points of r.G
    indicates the input was corrupt rather than a true singularity.
    """
    stack, one = point_stack(s, R.r)
    fracs = Resolvent(U, R).fractions(stack)
    return fracs[0] if one else fracs


def s_T(q, T: np.ndarray) -> np.ndarray:
    """The classical fraction (2 q2 T - q1)(2 - q1 T)^{-1}.

    For q in G and a contraction T the resolvent factor is always
    invertible; the function itself accepts any square T and raises
    NotInvertible when the inversion genuinely fails.
    """
    q1, q2 = complex(q[0]), complex(q[1])
    t = linalg.as_square(T, "T")
    n = t.shape[0]
    try:
        res = linalg.inverse(2.0 * np.eye(n) - q1 * t)
    except SingularMatrix as exc:
        raise NotInvertible(f"resolvent factor singular at ({q1}, {q2}): {exc}") from exc
    return (2.0 * q2 * t - q1 * np.eye(n)) @ res


def norm_bound(q) -> float:
    """Sharp sup-norm bound for s_{U,R} at the unscaled parameter q in G.

    Equals max of |(q2 z - q1/2)/(1 - q1 z / 2)| over the closed unit disc:
    (2 |conj(q1) q2 - q1| + |q1^2 - 4 q2|) / (4 - |q1|^2).  Strictly below 1
    on G.
    """
    q1, q2 = complex(q[0]), complex(q[1])
    if not in_G((q1, q2)):
        raise OutsideDomain(f"point ({q1}, {q2}) is not in G")
    center, radius = fq_disc((q1, q2))
    return abs(center) + radius


def s_UR_bound(s, r: float) -> float:
    """Convenience: norm_bound at the pullback of s in r.G through scaling."""
    return norm_bound(scale_psi_inv(s, r))


class Check(NamedTuple):
    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


@dataclass(frozen=True)
class ValidationReport:
    """The checks of one campaign; it passes when every check does."""

    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)


def validate_colligation(c: Colligation, tol: float = 1e-10) -> ValidationReport:
    """Report whether a colligation is usable: unitarity of L and U, and ||D|| <= 1.

    Nothing raises; the caller decides what to do with a failed report.
    """
    checks: list[Check] = []
    L = c.l_matrix()
    eye_l = np.eye(L.shape[0])
    eye_u = np.eye(c.U.shape[0])
    checks.append(Check("l_unitary_left", linalg.spectral_norm(L.conj().T @ L - eye_l), tol))
    checks.append(Check("l_unitary_right", linalg.spectral_norm(L @ L.conj().T - eye_l), tol))
    checks.append(Check("u_unitary_left", linalg.spectral_norm(c.U.conj().T @ c.U - eye_u), tol))
    checks.append(Check("u_unitary_right", linalg.spectral_norm(c.U @ c.U.conj().T - eye_u), tol))
    checks.append(Check("d_contraction", max(0.0, linalg.spectral_norm(c.D) - 1.0), tol))
    return ValidationReport(tuple(checks))
