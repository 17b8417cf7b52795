"""Realization formulas: from colligation to function and back.

A valid colligation (a, beta, gamma, D; U, R) realizes

    f(s) = a + < s_{U,R} u(s), beta >,    u(s) = (1 - D s_{U,R})^{-1} gamma,

and f then satisfies the model identity

    1 - conj(f(t)) f(s) = < (1 - t_{U,R}* s_{U,R}) u(s), u(t) >

for all s, t in r.G, which in particular bounds |f| by 1.  :func:`evaluate`
solves a whole stack of points at once, one solve of the pencil M - D N per
point (s_{U,R} = N M^{-1}); the one-point functions are views of it.
Conversely, :func:`realization_from_model` recovers a colligation from any
model (u_eval, f_eval) satisfying that identity, by completing the partial
isometry that sends [1; s_{U,R} u(s)] to [f(s); u(s)] across a family of
sample points.  On a grid of points the identity is the equality of the
Gramians of those two families, built by :func:`evaluate` and :func:`model_families`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .colligation import Check, Colligation, Resolvent, ValidationReport
from .colligation import s_UR  # noqa: F401  bench/test_bench.py rebinds realization.s_UR
from .domains import point_stack, sample_rG
from .errors import InsufficientSamples, InvalidParams, NotInvertible, ShapeMismatch

Evaluator = Callable[[Sequence[complex]], np.ndarray]
ScalarEvaluator = Callable[[Sequence[complex]], complex]


@dataclass(eq=False, frozen=True)
class GrModel(Resolvent):
    """A function on r.G presented through a model map into C^dim, dim the size of U.

    At an (N, 2) stack of points of r.G, ``u_eval`` gives the (N, dim) model
    vectors as rows and ``f_eval`` the (N,) values.  The two must jointly satisfy
    the model identity for the fraction built from (U, R); construction checks
    only that U matches R, :func:`realization_from_model` verifies before it builds.
    """

    u_eval: Evaluator
    f_eval: ScalarEvaluator


def evaluate(c: Colligation, pts) -> tuple[np.ndarray, np.ndarray]:
    """The families A = [1; s_{U,R} u(s)] and B = [f(s); u(s)] at N points.

    One column per point of ``pts`` (shape (N, 2)); row 0 of B is f, its
    other rows are u.  Entry (i, j) of Gram(A) - Gram(B) is the model
    identity defect at (s, t) = (s_j, s_i): ``linalg.gram_gap`` of the two
    is the worst :func:`model_residual` over all pairs.

    With s_{U,R} = N M^{-1}, N = 2 s2 R^{-1} U - s1 and M = 2 R - s1 U, each point
    costs one solve y = (M - D N)^{-1} gamma, and s_{U,R} u = N y, u = M y.  The
    points are solved in the blocks of ``linalg.blocks``, so the (N, n, n) working
    stacks stay small; an error names its point by the index in ``pts``.
    """
    pts = np.asarray(pts, dtype=complex)
    if pts.size and pts.ndim != 2:
        raise ShapeMismatch(f"points must have shape (N, 2), got {pts.shape}")
    a_fam = np.ones((1 + c.dim, len(pts)), dtype=complex)
    b_fam = np.empty_like(a_fam)
    r_diag, d_ru = np.diag(c.R.matrix), c.D @ (c.R.inv_matrix @ c.U)
    res = Resolvent(c.U, c.R)
    for b in linalg.blocks(len(pts), c.dim):
        stack, _ = point_stack(pts[b], c.r)
        den = res.factors(stack, b.start)
        s1, s2 = stack[:, :1], stack[:, 1:]
        pencil = den - (2.0 * s2[:, :, None] * d_ru - s1[:, :, None] * c.D)  # M - D N
        gamma = np.broadcast_to(c.gamma[:, None], (len(stack), c.dim, 1))
        try:
            y = np.linalg.solve(pencil, gamma)[:, :, 0]
        except np.linalg.LinAlgError as exc:  # ||D s_{U,R}|| < 1 in-domain
            k = int(np.argmax(np.linalg.slogdet(pencil)[0] == 0))  # solve's zero LU pivot
            at = f"{tuple(stack[k].tolist())} in r.G (matrix {b.start + k} of the stack)"
            raise NotInvertible(f"1 - D s_UR singular at {at}") from exc
        uy = y @ c.U.T
        a_fam[1:, b] = (2.0 * s2 * (uy / r_diag) - s1 * y).T  # N y
        b_fam[1:, b] = (2.0 * y * r_diag - s1 * uy).T  # M y
    b_fam[0] = c.a + c.beta.conj() @ a_fam[1:]
    return a_fam, b_fam


def eval_u(c: Colligation, s) -> np.ndarray:
    """The model map u(s) = (1 - D s_{U,R})^{-1} gamma: (n,) at one point, (N, n) at a stack."""
    one = np.shape(s) == (2,)
    u = evaluate(c, [s] if one else s)[1][1:].T
    return u[0] if one else u


def eval_f(c: Colligation, s):
    """The realized function a + <s_{U,R} u(s), beta>: a complex, or (N,) at a stack."""
    one = np.shape(s) == (2,)
    f = evaluate(c, [s] if one else s)[1][0]
    return complex(f[0]) if one else f


def model_residual(c: Colligation, s, t) -> float:
    """Defect of the model identity at the ordered pair (s, t)."""
    a_fam, b_fam = evaluate(c, [s, t])
    return abs(np.vdot(a_fam[:, 1], a_fam[:, 0]) - np.vdot(b_fam[:, 1], b_fam[:, 0]))


def schur_certify(c: Colligation, n: int, seed: int, tol: float = 1e-12) -> ValidationReport:
    """Certify f on n seeded points of r.G: |f| <= 1 + tol, and the model identity to 1e-9.

    The diagonal identity is checked at every point, the pair identity on the
    grid of the first min(n, 20) points.  With n = 0 every check passes vacuously.
    """
    a_fam, b_fam = evaluate(c, sample_rG(n, c.r, seed))
    diag = np.abs(np.sum(np.abs(a_fam) ** 2, axis=0) - np.sum(np.abs(b_fam) ** 2, axis=0))
    max_abs = float(np.max(np.abs(b_fam[0]), initial=0.0))
    grid = slice(min(n, 20))
    return ValidationReport((
        Check("schur_bound", max(0.0, max_abs - 1.0), tol),
        Check("diag_model_residual", float(np.max(diag, initial=0.0)), 1e-9),
        Check("pair_model_residual", linalg.gram_gap(a_fam[:, grid], b_fam[:, grid]), 1e-9),
    ))


def model_families(m: GrModel, pts) -> tuple[np.ndarray, np.ndarray]:
    """The families of :func:`evaluate` for a model, from one call of each of its maps.

    Raises ShapeMismatch on values of the wrong shape or non-finite values.
    """
    stack, _ = point_stack(pts, m.r)
    den = m.factors(stack)
    n = len(stack)
    u = np.asarray(m.u_eval(stack), dtype=complex)
    f = np.asarray(m.f_eval(stack), dtype=complex)
    finite = np.isfinite(u).all() and np.isfinite(f).all()
    if u.shape != (n, m.dim) or f.shape != (n,) or not finite:
        raise ShapeMismatch(
            f"model maps gave u {u.shape} and f {f.shape} at {n} points, or non-finite values"
        )
    z = np.linalg.solve(den, u[:, :, None])[:, :, 0]  # N z = s_{U,R} u
    su = 2.0 * stack[:, 1:] * ((z @ m.U.T) / np.diag(m.R.matrix)) - stack[:, :1] * z
    return np.vstack([np.ones((1, n)), su.T]), np.vstack([f[None, :], u.T])


def realization_from_model(m: GrModel, sample_pts, tol: float = 1e-10) -> Colligation:
    """Extract a colligation whose realized function matches the model.

    ``sample_pts`` is an (N, 2) stack of points of r.G, or a list of points.
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
    if not len(sample_pts):
        raise InvalidParams("at least one sample point is required")
    a_fam, b_fam = model_families(m, sample_pts)
    isom = linalg.isometry_from_gramians(a_fam, b_fam, tol)
    if isom.rank == a_fam.shape[1] < 1 + m.dim:
        raise InsufficientSamples(
            f"sampled span rank {isom.rank} equals the sample count; add points"
        )
    big_l = linalg.unitary_extension(isom)
    return Colligation.from_l_matrix(big_l, m.r, m.R.split, m.U)
