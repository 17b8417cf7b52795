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
and the CLI verify numerically.  Every map takes one point, giving its
value, or an (N, 2) stack of points, giving the N values stacked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .colligation import Check, Resolvent, SubspaceSplit, build_R
from .domains import (
    Point2,
    _as_stack,
    _check_size,
    _quad_roots_stack,
    check_r,
    point_stack,
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

def _exponents(j, k) -> tuple[int, int]:
    """A term's exponents as ints; numpy takes integer powers only for exponents of int64."""
    j, k = int(j), int(k)
    if min(j, k) < 0 or max(j, k) > np.iinfo(np.int64).max:
        raise InvalidParams("exponents must be nonnegative and fit in int64")
    return j, k


def _poly_eval(terms, lam, shape: tuple) -> tuple[np.ndarray, bool]:
    """The terms summed at one point or an (N, 2) stack: the (N,) + shape values and
    whether ``lam`` was one point.  Each power a term uses is computed once per stack."""
    pts, one = _as_stack(lam)
    p1 = {j: pts[:, 0] ** j for j in {j for (j, _), _ in terms}}
    p2 = {k: pts[:, 1] ** k for k in {k for (_, k), _ in terms}}
    out = np.zeros((len(pts),) + shape, dtype=complex)
    for (j, k), coeff in terms:
        out += np.multiply.outer(p1[j] * p2[k], coeff)
    return out, one


@dataclass(eq=False, frozen=True)
class PolyVectorMap:
    """A vector-valued polynomial sum of coeff * l1^j l2^k terms.

    ``eval`` gives a (dim,) vector at one point and the (N, dim) rows at an
    (N, 2) stack.  Any object with such an ``eval`` and a ``dim`` can stand
    in for one wherever the synthesis pipeline expects a model map.
    """

    dim: int
    terms: tuple[tuple[tuple[int, int], np.ndarray], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidParams(f"map dimension must be >= 1, got {self.dim}")
        coerced = []
        for (j, k), coeff in self.terms:
            j, k = _exponents(j, k)
            vec = linalg.as_vector(coeff, "coefficient")
            if vec.shape[0] != self.dim:
                raise ShapeMismatch(
                    f"coefficient of l1^{j} l2^{k} has dim {vec.shape[0]}, expected {self.dim}"
                )
            coerced.append(((j, k), vec))
        object.__setattr__(self, "terms", tuple(coerced))

    def eval(self, lam) -> np.ndarray:
        out, one = _poly_eval(self.terms, lam, (self.dim,))
        return out[0] if one else out


@dataclass(eq=False, frozen=True)
class ScalarPoly:
    """A scalar polynomial in (l1, l2) given by a finite list of terms; ``eval``
    gives a complex at one point and the (N,) values at an (N, 2) stack."""

    terms: tuple[tuple[tuple[int, int], complex], ...]

    def __post_init__(self):
        coerced = [(_exponents(j, k), complex(coeff)) for (j, k), coeff in self.terms]
        object.__setattr__(self, "terms", tuple(coerced))

    def eval(self, lam):
        out, one = _poly_eval(self.terms, lam, ())
        return complex(out[0]) if one else out


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
        SubspaceSplit(self.d1, self.d2)  # refuses an empty side
        if self.u1.dim != self.d1 or self.u2.dim != self.d2:
            raise ShapeMismatch(
                f"map dims ({self.u1.dim}, {self.u2.dim}) do not match ({self.d1}, {self.d2})"
            )

    @property
    def dim(self) -> int:
        return self.d1 + self.d2


def _v(spec: BidiscModelSpec, lam: np.ndarray) -> np.ndarray:
    return np.hstack([spec.u1.eval(lam), spec.u2.eval(sigma(lam, spec.r))]) / SQRT2


def eval_v(spec: BidiscModelSpec, lam) -> np.ndarray:
    """The vector (1/sqrt 2)[u1(lam); u2(sigma(lam))] on rD x D."""
    pts, one = point_stack(lam, spec.r, "rD x D")
    v = _v(spec, pts)
    return v[0] if one else v


def synthesis_sample_points(n: int, r: float) -> list[Point2]:
    """Deterministic low-discrepancy points of rD x D, pulled toward the center.

    A four-dimensional Kronecker sequence (powers of the generalized golden
    ratio) fills the unit hypercube; each quadruple maps to polar
    coordinates of the two disc factors, scaled by 0.8 to keep every
    inverse in the pipeline comfortably conditioned.
    """
    check_r(r)
    _check_size(n)
    # Root of x**5 = x + 1, the 4-dimensional generalization of the golden ratio.
    phi = 1.1673039782614187
    alphas = np.array([phi ** -(j + 1) for j in range(4)])
    t = (0.5 + np.arange(1, n + 1)[:, None] * alphas) % 1.0
    l1 = r * 0.8 * np.sqrt(t[:, 0]) * np.exp(2j * np.pi * t[:, 1])
    l2 = 0.8 * np.sqrt(t[:, 2]) * np.exp(2j * np.pi * t[:, 3])
    return list(zip(l1.tolist(), l2.tolist()))


def _spec_precheck(spec: BidiscModelSpec, lam) -> tuple[float, float]:
    """Max symmetry and model-identity residuals of the spec over a point stack.

    On all pairs of points the two-disc model identity is the equality of the
    Gramians of [1; l1 u1(lam); l2 u2(lam)] and [F(lam); u1(lam); u2(lam)].
    """
    lam = np.asarray(lam, dtype=complex)
    f = spec.F.eval(lam)
    sym = spec.F.eval(sigma(lam, spec.r)) - f
    u1, u2 = spec.u1.eval(lam), spec.u2.eval(lam)
    a_fam = np.column_stack([np.ones(len(lam)), lam[:, :1] * u1, lam[:, 1:] * u2])
    b_fam = np.column_stack([f, u1, u2])
    # hypot is the modulus Python's abs takes; np.abs can differ in the last bit.
    max_sym = float(np.max(np.hypot(sym.real, sym.imag)))
    return max_sym, linalg.gram_gap(a_fam.T, b_fam.T)


@dataclass(eq=False, frozen=True)
class SynthesizedModel(Resolvent):
    """The (U, R) pair produced from a spec, plus construction diagnostics."""

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
    pts, _ = point_stack(sample_pts, spec.r, "rD x D")
    if len(pts) < 2 * spec.dim:
        raise InsufficientSamples(
            f"{len(pts)} samples for dimension {spec.dim}; need at least {2 * spec.dim}"
        )
    grid = sample_skew_bidisc(VALIDATION_GRID_SIZE, spec.r, VALIDATION_SEED)
    max_sym, max_model = _spec_precheck(spec, np.concatenate([pts, grid]))
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
    r_op = build_R(SubspaceSplit(spec.d1, spec.d2), spec.r)
    v_here, v_sig = _v(spec, pts), _v(spec, sigma(pts, spec.r))
    a_mat = r_op.inv_matrix @ (pts[:, :1] * v_here - spec.r * pts[:, 1:] * v_sig).T
    b_mat = (v_here - v_sig).T
    isom = linalg.isometry_from_gramians(a_mat, b_mat, tol)
    u = linalg.unitary_extension(isom)
    report = {
        "gramian_residual": linalg.gram_gap(a_mat, b_mat),
        "isometry_residual": float(np.max(np.linalg.norm(u @ a_mat - b_mat, axis=0))),
        "u_unitarity": linalg.spectral_norm(u.conj().T @ u - np.eye(spec.dim)),
        "sigma_symmetry_residual": max_sym,
        "bidisc_model_residual": max_model,
        "rank": isom.rank,
        "sample_count": len(pts),
    }
    return SynthesizedModel(U=u, R=r_op, spec=spec, residual_report=report)


def _w(m: SynthesizedModel, lam: np.ndarray) -> np.ndarray:
    """w at each point of a checked rD x D stack, as rows: one batched solve per block."""
    v = _v(m.spec, lam)
    w = np.empty_like(v)
    for b in linalg.blocks(len(lam), m.dim):
        mats = np.eye(m.dim) - (m.spec.r * lam[b, 1])[:, None, None] * m.urinv
        try:
            w[b] = np.linalg.solve(mats, v[b, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:  # ||r l2 U R^{-1}|| = |l2| < 1 in-domain
            k = int(np.argmax(np.linalg.det(mats) == 0.0))  # the LU with a zero pivot
            raise NotInvertible(f"resolvent singular at {tuple(lam[b][k].tolist())}") from exc
    return w


def eval_w(m: SynthesizedModel, lam) -> np.ndarray:
    """w(lam) = (1 - r l2 U R^{-1})^{-1} v(lam); symmetric under sigma."""
    pts, one = point_stack(lam, m.spec.r, "rD x D")
    w = _w(m, pts)
    return w[0] if one else w


def _preimages(s: np.ndarray, r: float) -> np.ndarray:
    """The root preimage (rho1, rho2 / r) in rD x D of each point of a checked r.G stack."""
    roots = _quad_roots_stack(s)
    return np.column_stack([roots[:, 0], roots[:, 1] / r])


def eval_x(m: SynthesizedModel, s) -> np.ndarray:
    """x(s) = w at a root preimage of s; the assignment drops out by symmetry."""
    pts, one = point_stack(s, m.spec.r)
    x = _w(m, _preimages(pts, m.spec.r))
    return x[0] if one else x


def eval_u_model(m: SynthesizedModel, s) -> np.ndarray:
    """u(s) = (1/sqrt 2)(2 - s1 U R^{-1}) x(s) on r.G."""
    pts, one = point_stack(s, m.spec.r)
    x = _w(m, _preimages(pts, m.spec.r))
    u = (2.0 * x - pts[:, :1] * (x @ m.urinv.T)) / SQRT2
    return u[0] if one else u


def model_f_eval(m: SynthesizedModel, s):
    """F at either root preimage of s; well defined by sigma-symmetry."""
    pts, one = point_stack(s, m.spec.r)
    f = m.spec.F.eval(_preimages(pts, m.spec.r))
    return complex(f[0]) if one else f


def kernel_checks(m: SynthesizedModel, lam) -> list[Check]:
    """Checks of w on the pair grid of a stack of rD x D.

    ``kernel_z_identity`` is 1 - conj(F(mu)) F(lam) = <Z(lam, mu) w(lam), w(mu)>.
    With a = (1 - r l2 U R^-1) w and b = (1 - l1 U R^-1) w, the product form of
    Z makes it the equality of the Gramians of [1; l1 R^-1 a; r l2 R^-1 b] and
    [F; a; b].  ``w_symmetry`` is the largest |w(sigma(lam)) - w(lam)|.
    """
    r = m.spec.r
    lam, _ = point_stack(lam, r, "rD x D")
    w = _w(m, lam)
    rinv = m.R.inv_matrix
    urinv_w = w @ m.urinv.T
    l1, rl2 = lam[:, :1], r * lam[:, 1:]
    a, b = w - rl2 * urinv_w, w - l1 * urinv_w
    a_fam = np.column_stack([np.ones(len(lam)), l1 * (a @ rinv.T), rl2 * (b @ rinv.T)])
    b_fam = np.column_stack([m.spec.F.eval(lam), a, b])
    w_sym = np.linalg.norm(_w(m, sigma(lam, r)) - w, axis=1)
    return [
        Check("kernel_z_identity", linalg.gram_gap(a_fam.T, b_fam.T), 1e-9),
        Check("w_symmetry", float(np.max(w_sym, initial=0.0)), 1e-9),
    ]


def wrap_as_GrModel(m: SynthesizedModel) -> GrModel:
    """Package the synthesized model for :func:`realization_from_model`."""
    return GrModel(
        U=m.U,
        R=m.R,
        u_eval=lambda s: eval_u_model(m, s),
        f_eval=lambda s: model_f_eval(m, s),
    )
