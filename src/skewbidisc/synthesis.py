"""Model synthesis: from a symmetric bidisc model to a model on r.G.

The pipeline starts from a datum (u1, u2, F) on the bidisc satisfying the
two-disc model identity together with the symmetry F(sigma(lam)) = F(lam)
on rD x D, where sigma(l1, l2) = (r l2, l1 / r).  From it we build

    v(lam)  = (1/sqrt 2) [u1(lam); u2(sigma(lam))],
    A_lam   = R^{-1} (l1 v(lam) - r l2 v(sigma(lam))),
    B_lam   = v(lam) - v(sigma(lam)),

verify Gram(A) = Gram(B) on a sample family, complete the resulting partial
isometry to a unitary U, and set R = diag(1_{d1}, r 1_{d2}).  The derived
maps

    w(lam) = (1 - r l2 U R^{-1})^{-1} v(lam)          (sigma-symmetric),
    x(s)   = w(lam) for either root preimage of s,
    u(s)   = (1/sqrt 2)(2 - s1 U R^{-1}) x(s)

then satisfy the kernel and model identities on r.G, which the test suite
and the CLI verify numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .colligation import ROperator, SubspaceSplit, build_R
from .domains import (
    Point2,
    check_r,
    point_stack,
    quad_roots,
    sample_skew_bidisc,
    sigma,
)
from .errors import (
    GramianMismatch,
    InsufficientSamples,
    InvalidParams,
    NotInvertible,
    ShapeMismatch,
)
from .realization import GrModel

SQRT2 = math.sqrt(2.0)

# Seed for the fixed validation grid every synthesize call checks against.
VALIDATION_SEED = 1105
VALIDATION_GRID_SIZE = 12


@dataclass(eq=False, frozen=True)
class PolyVectorMap:
    """A vector-valued polynomial sum of coeff * l1^j l2^k terms.

    Any object with a compatible ``eval`` and ``dim`` can stand in for one
    wherever the synthesis pipeline expects a model map.
    """

    dim: int
    terms: tuple[tuple[tuple[int, int], np.ndarray], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidParams(f"map dimension must be >= 1, got {self.dim}")
        coerced = []
        for (j, k), coeff in self.terms:
            if j < 0 or k < 0:
                raise InvalidParams(f"negative exponents ({j}, {k})")
            vec = linalg.as_vector(coeff, "coefficient")
            if vec.shape[0] != self.dim:
                raise ShapeMismatch(
                    f"coefficient of l1^{j} l2^{k} has dim {vec.shape[0]}, expected {self.dim}"
                )
            coerced.append(((int(j), int(k)), vec))
        object.__setattr__(self, "terms", tuple(coerced))

    def eval(self, lam: Sequence[complex]) -> np.ndarray:
        l1, l2 = complex(lam[0]), complex(lam[1])
        out = np.zeros(self.dim, dtype=complex)
        for (j, k), coeff in self.terms:
            out += (l1**j) * (l2**k) * coeff
        return out


@dataclass(eq=False, frozen=True)
class ScalarPoly:
    """A scalar polynomial in (l1, l2) given by a finite list of terms."""

    terms: tuple[tuple[tuple[int, int], complex], ...]

    def __post_init__(self):
        coerced = []
        for (j, k), coeff in self.terms:
            if j < 0 or k < 0:
                raise InvalidParams(f"negative exponents ({j}, {k})")
            coerced.append(((int(j), int(k)), complex(coeff)))
        object.__setattr__(self, "terms", tuple(coerced))

    def eval(self, lam: Sequence[complex]) -> complex:
        l1, l2 = complex(lam[0]), complex(lam[1])
        return sum((l1**j) * (l2**k) * c for (j, k), c in self.terms) + 0j


@dataclass(eq=False, frozen=True)
class BidiscModelSpec:
    """Input datum of the pipeline: model maps u1, u2 and the function F."""

    r: float
    d1: int
    d2: int
    u1: PolyVectorMap
    u2: PolyVectorMap
    F: ScalarPoly

    def __post_init__(self):
        check_r(self.r)
        if self.d1 < 1 or self.d2 < 1:
            raise InvalidParams(f"model dimensions ({self.d1}, {self.d2}) must be >= 1")
        if self.u1.dim != self.d1 or self.u2.dim != self.d2:
            raise ShapeMismatch(
                f"map dims ({self.u1.dim}, {self.u2.dim}) do not match ({self.d1}, {self.d2})"
            )

    @property
    def dim(self) -> int:
        return self.d1 + self.d2


def eval_v(spec: BidiscModelSpec, lam: Sequence[complex]) -> np.ndarray:
    """The stacked vector (1/sqrt 2)[u1(lam); u2(sigma(lam))] on rD x D."""
    point_stack(lam, spec.r, "rD x D")
    lam_s = sigma(lam, spec.r)
    return np.concatenate([spec.u1.eval(lam), spec.u2.eval(lam_s)]) / SQRT2


def _gram_families(spec: BidiscModelSpec, pts: Sequence[Point2], rinv: np.ndarray):
    """Stack the two Gramian families as matrix columns."""
    a_cols = []
    b_cols = []
    for lam in pts:
        l1, l2 = complex(lam[0]), complex(lam[1])
        v_here = eval_v(spec, lam)
        v_sig = eval_v(spec, sigma(lam, spec.r))
        a_cols.append(rinv @ (l1 * v_here - spec.r * l2 * v_sig))
        b_cols.append(v_here - v_sig)
    return np.column_stack(a_cols), np.column_stack(b_cols)


def synthesis_sample_points(n: int, r: float, scale: float = 0.8) -> list[Point2]:
    """Deterministic low-discrepancy points of rD x D, pulled toward the center.

    A four-dimensional Kronecker sequence (powers of the generalized golden
    ratio) fills the unit hypercube; each quadruple maps to polar
    coordinates of the two disc factors, scaled by ``scale`` to keep every
    inverse in the pipeline comfortably conditioned.
    """
    check_r(r)
    if not 0.0 < scale <= 1.0:
        raise InvalidParams(f"scale must lie in (0, 1], got {scale}")
    # Root of x**5 = x + 1, the 4-dimensional generalization of the golden ratio.
    phi = 1.1673039782614187
    alphas = np.array([phi ** -(j + 1) for j in range(4)])
    pts: list[Point2] = []
    for i in range(1, n + 1):
        t = (0.5 + i * alphas) % 1.0
        rad1 = r * scale * math.sqrt(t[0])
        rad2 = scale * math.sqrt(t[2])
        l1 = rad1 * np.exp(2j * np.pi * t[1])
        l2 = rad2 * np.exp(2j * np.pi * t[3])
        pts.append((complex(l1), complex(l2)))
    return pts


def _spec_precheck(spec: BidiscModelSpec, pts: Sequence[Point2]) -> tuple[float, float]:
    """Max symmetry and model-identity residuals of the spec over a point set.

    On all pairs of points the two-disc model identity is the equality of the
    Gramians of [1; l1 u1(lam); l2 u2(lam)] and [F(lam); u1(lam); u2(lam)].
    """
    f_vals = [spec.F.eval(lam) for lam in pts]
    max_sym = max(abs(spec.F.eval(sigma(lam, spec.r)) - f) for lam, f in zip(pts, f_vals))
    a_cols, b_cols = [], []
    for lam, f in zip(pts, f_vals):
        u1, u2 = spec.u1.eval(lam), spec.u2.eval(lam)
        a_cols.append(np.concatenate([[1.0], lam[0] * u1, lam[1] * u2]))
        b_cols.append(np.concatenate([[f], u1, u2]))
    return max_sym, linalg.gram_gap(a_cols, b_cols)


@dataclass(eq=False, frozen=True)
class SynthesizedModel:
    """The (U, R) pair produced from a spec, plus construction diagnostics."""

    dim: int
    U: np.ndarray
    R: ROperator
    spec: BidiscModelSpec
    residual_report: dict


def synthesize(
    spec: BidiscModelSpec, sample_pts: Sequence[Point2], tol: float = 1e-10
) -> SynthesizedModel:
    """Run the Gramian construction and return the synthesized (U, R).

    The spec is first screened on the sample points plus a fixed seeded
    grid: F must be sigma-symmetric and the bidisc model identity must hold,
    both within ``tol``; violations raise GramianMismatch whose ``check`` is
    ``"sigma_symmetry"`` or ``"bidisc_model"``, since either defect breaks
    the Gramian equality the construction rests on.  The families A and B
    are then stacked over the sample points and the partial isometry
    between them is completed to the unitary U.

    Raises InsufficientSamples when fewer than 2 (d1 + d2) points are given.
    """
    pts = [tuple(p) for p in point_stack(sample_pts, spec.r, "rD x D")[0].tolist()]
    if len(pts) < 2 * spec.dim:
        raise InsufficientSamples(
            f"{len(pts)} samples for dimension {spec.dim}; need at least {2 * spec.dim}"
        )
    grid = sample_skew_bidisc(VALIDATION_GRID_SIZE, spec.r, VALIDATION_SEED)
    max_sym, max_model = _spec_precheck(spec, pts + grid)
    if max_sym > tol:
        raise GramianMismatch(
            f"sigma-symmetry of F fails: residual {max_sym:.3e} > {tol:.1e}",
            residual=max_sym,
            check="sigma_symmetry",
        )
    if max_model > tol:
        raise GramianMismatch(
            f"bidisc model identity fails: residual {max_model:.3e} > {tol:.1e}",
            residual=max_model,
            check="bidisc_model",
        )
    split = SubspaceSplit(spec.d1, spec.d2)
    r_op = build_R(split, spec.r)
    a_mat, b_mat = _gram_families(spec, pts, r_op.inv_matrix)
    isom = linalg.isometry_from_gramians(a_mat, b_mat, tol)
    u = linalg.unitary_extension(isom, spec.dim)
    report = {
        "gramian_residual": linalg.gram_gap(a_mat, b_mat),
        "isometry_residual": float(np.max(np.linalg.norm(u @ a_mat - b_mat, axis=0))),
        "u_unitarity": linalg.spectral_norm(u.conj().T @ u - np.eye(spec.dim)),
        "sigma_symmetry_residual": max_sym,
        "bidisc_model_residual": max_model,
        "rank": isom.rank,
        "sample_count": len(pts),
    }
    return SynthesizedModel(dim=spec.dim, U=u, R=r_op, spec=spec, residual_report=report)


def eval_w(m: SynthesizedModel, lam: Sequence[complex]) -> np.ndarray:
    """w(lam) = (1 - r l2 U R^{-1})^{-1} v(lam); symmetric under sigma."""
    v = eval_v(m.spec, lam)  # refuses lam outside rD x D
    l2 = complex(lam[1])
    mat = np.eye(m.dim) - m.spec.r * l2 * m.U @ m.R.inv_matrix
    try:
        return np.linalg.solve(mat, v)
    except np.linalg.LinAlgError as exc:  # ||r l2 U R^{-1}|| = |l2| < 1 in-domain
        raise NotInvertible(f"resolvent singular at {tuple(lam)}") from exc


def eval_x(m: SynthesizedModel, s: Sequence[complex]) -> np.ndarray:
    """x(s) = w at a root preimage of s; the assignment drops out by symmetry."""
    point_stack(s, m.spec.r)
    rho1, rho2 = quad_roots(s)
    return eval_w(m, (rho1, rho2 / m.spec.r))


def eval_u_model(m: SynthesizedModel, s: Sequence[complex]) -> np.ndarray:
    """u(s) = (1/sqrt 2)(2 - s1 U R^{-1}) x(s) on r.G."""
    x = eval_x(m, s)
    s1 = complex(s[0])
    return (2.0 * x - s1 * (m.U @ (m.R.inv_matrix @ x))) / SQRT2


def intertwining_residual(m: SynthesizedModel, lam: Sequence[complex]) -> float:
    """Defect of (1 - l1 U R^{-1}) v(lam) = (1 - r l2 U R^{-1}) v(sigma(lam))."""
    l1, l2 = complex(lam[0]), complex(lam[1])
    urinv = m.U @ m.R.inv_matrix
    v_here = eval_v(m.spec, lam)
    v_sig = eval_v(m.spec, sigma(lam, m.spec.r))
    lhs = v_here - l1 * urinv @ v_here
    rhs = v_sig - m.spec.r * l2 * urinv @ v_sig
    return float(np.linalg.norm(lhs - rhs))


def model_f_eval(m: SynthesizedModel, s: Sequence[complex]) -> complex:
    """F at either root preimage of s; well defined by sigma-symmetry."""
    point_stack(s, m.spec.r)
    rho1, rho2 = quad_roots(s)
    return m.spec.F.eval((rho1, rho2 / m.spec.r))


def wrap_as_GrModel(m: SynthesizedModel) -> GrModel:
    """Package the synthesized model for :func:`realization_from_model`."""
    return GrModel(
        dim=m.dim,
        U=m.U,
        R=m.R,
        u_eval=lambda s: eval_u_model(m, s),
        f_eval=lambda s: model_f_eval(m, s),
    )
