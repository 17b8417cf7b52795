"""Realization formulas: from colligation to function and back.

A valid colligation (a, beta, gamma, D; U, R) realizes

    f(s) = a + < s_{U,R} u(s), beta >,    u(s) = (1 - D s_{U,R})^{-1} gamma,

and f then satisfies the model identity

    1 - conj(f(t)) f(s) = < (1 - t_{U,R}* s_{U,R}) u(s), u(t) >

for all s, t in r.G, which in particular bounds |f| by 1.  :func:`evaluate`
solves a whole stack of points at once; the one-point functions are views
of it.  Conversely, :func:`realization_from_model` recovers a colligation
from any model (u_eval, f_eval) satisfying that identity, by completing
the partial isometry that sends [1; s_{U,R} u(s)] to [f(s); u(s)] across a
family of sample points.  On a grid of points the identity is the equality
of the Gramians of those two families, built by :func:`evaluate` and
:func:`model_families`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .colligation import Colligation, ROperator, s_T, s_UR, validate_colligation
from .domains import Point2, check_r, point_stack, sample_rG
from .errors import InsufficientSamples, InvalidParams, NotInvertible, ShapeMismatch

Evaluator = Callable[[Sequence[complex]], np.ndarray]
ScalarEvaluator = Callable[[Sequence[complex]], complex]


@dataclass(eq=False, frozen=True)
class GrModel:
    """A function on r.G presented through a model map into C^dim.

    ``u_eval`` and ``f_eval`` must jointly satisfy the model identity with
    respect to the fraction built from (U, R); nothing is checked at
    construction, :func:`realization_from_model` verifies before it builds.
    """

    dim: int
    U: np.ndarray
    R: ROperator
    u_eval: Evaluator
    f_eval: ScalarEvaluator


def evaluate(c: Colligation, pts) -> tuple[np.ndarray, np.ndarray]:
    """The families A = [1; s_{U,R} u(s)] and B = [f(s); u(s)] at N points.

    One column per point of ``pts`` (shape (N, 2)); row 0 of B is f, its
    other rows are u.  Entry (i, j) of Gram(A) - Gram(B) is the model
    identity defect at (s, t) = (s_j, s_i): ``linalg.gram_gap`` of the two
    is the worst :func:`model_residual` over all pairs.  The points are
    solved in the blocks of ``linalg.blocks``, so the (N, n, n) working
    stacks stay small however many points are asked for.
    """
    pts = np.asarray(pts, dtype=complex)
    if pts.size and pts.ndim != 2:
        raise ShapeMismatch(f"points must have shape (N, 2), got {pts.shape}")
    a_fam = np.ones((1 + c.dim, len(pts)), dtype=complex)
    b_fam = np.empty_like(a_fam)
    for b in linalg.blocks(len(pts), c.dim):
        frac = s_UR(pts[b], c.U, c.R)
        gamma = np.broadcast_to(c.gamma[:, None], (len(frac), c.dim, 1))
        try:
            u = np.linalg.solve(np.eye(c.dim) - c.D @ frac, gamma)
        except np.linalg.LinAlgError as exc:  # ||D s_{U,R}|| < 1 in-domain
            raise NotInvertible("1 - D s_UR singular at a point of the stack") from exc
        a_fam[1:, b] = (frac @ u)[:, :, 0].T
        b_fam[1:, b] = u[:, :, 0].T
    b_fam[0] = c.a + c.beta.conj() @ a_fam[1:]
    return a_fam, b_fam


def eval_u(c: Colligation, s) -> np.ndarray:
    """The model map u(s) = (1 - D s_{U,R})^{-1} gamma of a colligation."""
    return evaluate(c, [s])[1][1:, 0]


def eval_f(c: Colligation, s) -> complex:
    """The realized function a + <s_{U,R} u(s), beta>."""
    return complex(evaluate(c, [s])[1][0, 0])


def model_residual(c: Colligation, s, t) -> float:
    """Defect of the model identity at the ordered pair (s, t)."""
    a_fam, b_fam = evaluate(c, [s, t])
    return abs(np.vdot(a_fam[:, 1], a_fam[:, 0]) - np.vdot(b_fam[:, 1], b_fam[:, 0]))


@dataclass(frozen=True)
class CertReport:
    n: int
    seed: int
    max_abs_f: float
    max_diag_residual: float
    passed: bool


def schur_certify(
    c: Colligation,
    n: int,
    seed: int,
    tol: float = 1e-12,
    residual_tol: float = 1e-9,
) -> CertReport:
    """Sample r.G and certify |f| <= 1 + tol and the diagonal model identity.

    With n = 0 the report passes vacuously.
    """
    a_fam, b_fam = evaluate(c, sample_rG(n, c.r, seed))
    diag = np.abs(np.sum(np.abs(a_fam) ** 2, axis=0) - np.sum(np.abs(b_fam) ** 2, axis=0))
    max_abs = float(np.max(np.abs(b_fam[0]), initial=0.0))
    max_diag = float(np.max(diag, initial=0.0))
    passed = (max_abs <= 1.0 + tol) and (max_diag <= residual_tol)
    return CertReport(
        n=n, seed=seed, max_abs_f=max_abs, max_diag_residual=max_diag, passed=passed
    )


def model_families(m: GrModel, pts: Sequence[Point2]) -> tuple[np.ndarray, np.ndarray]:
    """The families of :func:`evaluate` for a model; u and f from its evaluators."""
    frac = s_UR(pts, m.U, m.R)
    u = np.array([linalg.as_vector(m.u_eval(s), "u(s)") for s in pts]).reshape(len(pts), m.dim)
    f = np.array([m.f_eval(s) for s in pts], dtype=complex)
    su = (frac @ u[:, :, None])[:, :, 0]
    return np.vstack([np.ones((1, len(pts))), su.T]), np.vstack([f[None, :], u.T])


def realization_from_model(
    m: GrModel, sample_pts: Sequence[Point2], tol: float = 1e-10
) -> Colligation:
    """Extract a colligation whose realized function matches the model.

    The families of :func:`model_families` have equal Gramians exactly when
    the model identity holds on all sample pairs; ``isometry_from_gramians``
    verifies that (GramianMismatch carries the worst pair residual on
    failure) and builds the partial isometry between them, which is then
    completed to a unitary on C^{1+dim} whose blocks are read off.

    Raises InsufficientSamples when the sampled span might still grow
    (numerical rank equals the sample count but not 1 + dim): the unitary
    completion is then arbitrary on directions that unsampled points of the
    model reach, and the extracted colligation can validate while realizing
    a different function.  Sampling enough points in general position (in practice
    4 (dim + 1) suffices) saturates the span, and no enlargement of the
    state space is ever needed at finite dimension.
    """
    pts = list(sample_pts)
    if not pts:
        raise InvalidParams("at least one sample point is required")
    isom = linalg.isometry_from_gramians(*model_families(m, pts), tol)
    if isom.rank == len(pts) < 1 + m.dim:
        raise InsufficientSamples(
            f"sampled span rank {isom.rank} equals the sample count; add points"
        )
    big_l = linalg.unitary_extension(isom, 1 + m.dim)
    return Colligation(
        r=m.R.r,
        split=m.R.split,
        a=big_l[0, 0],
        beta=big_l[0, 1:].conj().copy(),
        gamma=big_l[1:, 0].copy(),
        D=big_l[1:, 1:].copy(),
        U=m.U,
    )


def scaled_model_residual(
    T: np.ndarray,
    v_eval: Evaluator,
    f_eval: ScalarEvaluator,
    s,
    t,
    r: float,
) -> float:
    """Defect of the scaled model identity carried over from G by the scaling map.

    Given a contraction T on the model space and X = T / r, measures

        |1 - conj(f(t)) f(s) - <(1 - r^{-2} t_X* s_X) v(s), v(t)>|

    at a pair of points of r.G.  The pairing is stated so that the point in
    the linear slot of the kernel (s) is the argument of the unconjugated f.
    """
    check_r(r)
    point_stack([s, t], r)
    x = linalg._as_square(np.asarray(T, dtype=complex) / r, "X")
    frac_s = s_T(s, x)
    frac_t = s_T(t, x)
    eye = np.eye(x.shape[0])
    v_s = linalg.as_vector(v_eval(s), "v(s)")
    v_t = linalg.as_vector(v_eval(t), "v(t)")
    lhs = 1.0 - complex(f_eval(t)).conjugate() * complex(f_eval(s))
    rhs = np.vdot(v_t, (eye - frac_t.conj().T @ frac_s / (r * r)) @ v_s)
    return abs(lhs - rhs)


@dataclass(eq=False, frozen=True)
class RealizedFunction:
    """A colligation frozen together with the guarantee that it validates.

    Construction runs :func:`validate_colligation` at 1e-8 and refuses
    defective input, so instances can be passed around as certified
    Schur-class functions and called directly.
    """

    colligation: Colligation

    def __post_init__(self):
        report = validate_colligation(self.colligation, tol=1e-8)
        if not report.passed:
            worst = max(report.checks, key=lambda ch: ch.residual)
            raise InvalidParams(
                f"colligation fails validation: {worst.name} residual {worst.residual:.3e}"
            )

    @property
    def r(self) -> float:
        return self.colligation.r

    def __call__(self, s) -> complex:
        return eval_f(self.colligation, s)
