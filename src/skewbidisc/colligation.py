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
from .domains import check_r, in_G, point_stack, scale_psi_inv
from .errors import (
    InvalidParams,
    NotInvertible,
    OutsideDomain,
    ShapeMismatch,
    SingularMatrix,
)


@dataclass(frozen=True)
class SubspaceSplit:
    """Dimensions of the decomposition M = C^{d1} (+) C^{d2}.

    Construction allows a degenerate side (d1 or d2 equal to 0) so that
    malformed colligations can still be represented and *reported* invalid;
    operations that genuinely need the split proper refuse it.
    """

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 0 or self.d2 < 0 or self.d1 + self.d2 < 1:
            raise InvalidParams(f"split ({self.d1}, {self.d2}) is not usable")

    @property
    def total(self) -> int:
        return self.d1 + self.d2

    @property
    def proper(self) -> bool:
        return self.d1 >= 1 and self.d2 >= 1


@dataclass(eq=False, frozen=True)
class ROperator:
    """The diagonal diag(1_{d1}, r 1_{d2}) with exact inverse."""

    split: SubspaceSplit
    r: float
    matrix: np.ndarray

    @cached_property
    def inv_matrix(self) -> np.ndarray:
        inv = np.diag(1.0 / np.diag(self.matrix))
        inv.flags.writeable = False  # computed once, shared by every reader
        return inv


def build_R(split: SubspaceSplit, r: float) -> ROperator:
    """Assemble the R operator for a proper split and valid r."""
    if not split.proper:
        raise InvalidParams(f"split ({split.d1}, {split.d2}) must have both parts >= 1")
    check_r(r)
    d = np.concatenate([np.ones(split.d1), np.full(split.d2, float(r))])
    return ROperator(split=split, r=float(r), matrix=np.diag(d.astype(complex)))


@dataclass(eq=False)
class Colligation:
    """A realization datum (a, beta, gamma, D) on C (+) C^{d1+d2} plus U and r.

    Construction checks shapes and finiteness only.  Whether the block
    matrix is actually unitary is a question for :func:`validate_colligation`,
    which reports rather than raises, so that defective inputs can be
    examined.
    """

    r: float
    split: SubspaceSplit
    a: complex
    beta: np.ndarray
    gamma: np.ndarray
    D: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        self.r = check_r(self.r)
        self.a = complex(self.a)
        self.beta = linalg.as_vector(self.beta, "beta")
        self.gamma = linalg.as_vector(self.gamma, "gamma")
        self.D = linalg._as_square(self.D, "D")
        self.U = linalg._as_square(self.U, "U")
        n = self.split.total
        if not (
            self.beta.shape[0] == n
            and self.gamma.shape[0] == n
            and self.D.shape == (n, n)
            and self.U.shape == (n, n)
        ):
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


def random_colligation(split: SubspaceSplit, r: float, seed: int) -> Colligation:
    """A valid colligation drawn from Haar measure; useful for campaigns."""
    if not split.proper:
        raise InvalidParams("random colligation needs a proper split")
    rng = np.random.Generator(np.random.Philox(seed))
    L = linalg.haar_unitary(split.total + 1, rng)
    U = linalg.haar_unitary(split.total, rng)
    return Colligation(
        r=r,
        split=split,
        a=L[0, 0],
        beta=L[0, 1:].conj().copy(),
        gamma=L[1:, 0].copy(),
        D=L[1:, 1:].copy(),
        U=U,
    )


def s_UR(s, U: np.ndarray, R: ROperator) -> np.ndarray:
    """The fraction (2 s2 R^{-1} U - s1)(2 R - s1 U)^{-1} at points of r.G.

    ``s`` is one point (s1, s2), giving an (n, n) matrix, or a stack of
    points of shape (N, 2), giving the (N, n, n) stack of fractions.

    Raises OutsideDomain at the first point off the open domain and
    NotInvertible if a resolvent factor fails, which for points of r.G
    indicates the input was corrupt rather than a true singularity.
    """
    stack, one = point_stack(s, R.r)
    u = linalg._as_square(U, "U")
    if u.shape != R.matrix.shape:
        raise ShapeMismatch(f"U has shape {u.shape}, R has shape {R.matrix.shape}")
    s1, s2 = stack[:, 0, None, None], stack[:, 1, None, None]
    num = 2.0 * s2 * (R.inv_matrix @ u) - s1 * np.eye(u.shape[0])
    try:
        fracs = num @ linalg.inverse(2.0 * R.matrix - s1 * u)
    except SingularMatrix as exc:
        s1, s2 = stack[exc.index].tolist()
        raise NotInvertible(f"resolvent factor singular at ({s1}, {s2}) in r.G: {exc}") from exc
    return fracs[0] if one else fracs


def s_T(q, T: np.ndarray) -> np.ndarray:
    """The classical fraction (2 q2 T - q1)(2 - q1 T)^{-1}.

    For q in G and a contraction T the resolvent factor is always
    invertible; the function itself accepts any square T and raises
    NotInvertible when the inversion genuinely fails.
    """
    q1, q2 = complex(q[0]), complex(q[1])
    t = linalg._as_square(T, "T")
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
    if not in_G((q1, q2), margin=0.0):
        raise OutsideDomain(f"point ({q1}, {q2}) is not in G")
    d = 4.0 - abs(q1) ** 2
    return (2.0 * abs(q1.conjugate() * q2 - q1) + abs(q1 * q1 - 4.0 * q2)) / d


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
    passed: bool
    checks: tuple[Check, ...]

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)


def validate_colligation(c: Colligation, tol: float = 1e-10) -> ValidationReport:
    """Report whether a colligation is usable: structure plus unitarity.

    Structural failures (improper split) surface as an infinite residual so
    they are visible next to the numeric defects.  Nothing raises; the
    caller decides what to do with a failed report.
    """
    checks: list[Check] = []
    checks.append(
        Check("split_proper", 0.0 if c.split.proper else float("inf"), tol)
    )
    L = c.l_matrix()
    eye_l = np.eye(L.shape[0])
    eye_u = np.eye(c.U.shape[0])
    checks.append(Check("l_unitary_left", linalg.spectral_norm(L.conj().T @ L - eye_l), tol))
    checks.append(Check("l_unitary_right", linalg.spectral_norm(L @ L.conj().T - eye_l), tol))
    checks.append(Check("u_unitary_left", linalg.spectral_norm(c.U.conj().T @ c.U - eye_u), tol))
    checks.append(Check("u_unitary_right", linalg.spectral_norm(c.U @ c.U.conj().T - eye_u), tol))
    checks.append(Check("d_contraction", max(0.0, linalg.spectral_norm(c.D) - 1.0), tol))
    return ValidationReport(passed=all(ch.passed for ch in checks), checks=tuple(checks))
