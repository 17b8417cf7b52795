"""Closed-form Schur-class functions on r.G with their generating colligations.

Every entry is a rank-one instance: the state space is C^2 with the split
(1, 1), U = diag(omega1, omega2) for unimodular omegas, D = u (x) v of rank
one, and a = 0.  Unitarity of the block matrix L forces

    |omega1| = |omega2| = 1,
    ||gamma|| = ||beta|| = ||u|| = ||v|| = 1,
    {gamma, u} and {beta, v} orthonormal bases of C^2,

and under those constraints the realized function collapses to an explicit
quotient of Mobius-type fractions.  The closed form and the colligation
evaluation share nothing below the scalar fraction, so comparing them is a
genuine dual-path check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .colligation import Colligation, SubspaceSplit
from .domains import check_r, mobius_phi, sample_rG
from .errors import ConfigError, DegenerateDenominator, InvalidParams
from .realization import evaluate

CATALOG_NAMES = ("upsilon", "magic", "blend", "rank-one")

_E1 = np.array([1.0, 0.0], dtype=complex)
_E2 = np.array([0.0, 1.0], dtype=complex)

# |denominator| below this counts as a vanishing determinant.
DEN_EPS = 1e-14


@dataclass(eq=False, frozen=True)
class RankOneParams:
    """Parameters of a rank-one colligation on C (+) C^2."""

    r: float
    omega1: complex
    omega2: complex
    gamma: np.ndarray
    beta: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        check_r(self.r)
        object.__setattr__(self, "omega1", complex(self.omega1))
        object.__setattr__(self, "omega2", complex(self.omega2))
        for name in ("gamma", "beta", "u", "v"):
            vec = linalg.as_vector(getattr(self, name), name)
            if vec.shape[0] != 2:
                raise InvalidParams(f"{name} must live in C^2, got length {vec.shape[0]}")
            object.__setattr__(self, name, vec)


def validate_params(p: RankOneParams, tol: float = 1e-10) -> None:
    """Reject parameters violating the unitarity-forcing conditions.

    Near misses are rejected rather than renormalized: the conditions are
    exactly what makes the block matrix L unitary, so projecting them away
    would certify a different function than the one requested.
    """
    for name, omega in (("omega1", p.omega1), ("omega2", p.omega2)):
        if abs(abs(omega) - 1.0) > tol:
            raise InvalidParams(f"{name} has modulus {abs(omega)!r}, expected 1")
    for name in ("gamma", "beta", "u", "v"):
        norm = float(np.linalg.norm(getattr(p, name)))
        if abs(norm - 1.0) > tol:
            raise InvalidParams(f"||{name}|| = {norm!r}, expected 1")
    ug = abs(np.vdot(p.gamma, p.u))
    vb = abs(np.vdot(p.beta, p.v))
    if ug > tol:
        raise InvalidParams(f"<u, gamma> has modulus {ug:.3e}, expected 0")
    if vb > tol:
        raise InvalidParams(f"<v, beta> has modulus {vb:.3e}, expected 0")


def rank_one_build(
    p: RankOneParams, tol: float = 1e-10
) -> tuple[Colligation, Callable[[Sequence[complex]], complex]]:
    """The colligation of a rank-one entry and its closed-form evaluator.

    The closed form is

        f(s) = <N(s) gamma, beta> / det(s),

        det(s) = 1 - u1 conj(v1) p1(s) - u2 conj(v2) p2(s),

    with p1 = phi_{omega1}(s), p2 = r^{-1} phi_{omega2 / r}(s) built from the
    scalar fraction phi_z(s) = (s2 z - s1/2)/(1 - s1 z / 2), and

        N(s) = [[p1 (1 - u2 conj(v2) p2),  u1 conj(v2) p1 p2],
                [u2 conj(v1) p1 p2,        p2 (1 - u1 conj(v1) p1)]].
    """
    validate_params(p, tol)
    colligation = Colligation(
        r=p.r,
        split=SubspaceSplit(1, 1),
        a=0.0,
        beta=p.beta,
        gamma=p.gamma,
        D=np.outer(p.u, p.v.conj()),
        U=np.diag([p.omega1, p.omega2]),
    )

    def closed_form(s) -> complex:
        return _closed_form_and_denominator(p, s)[0]

    return colligation, closed_form


def _closed_form_and_denominator(p: RankOneParams, s) -> tuple[complex, float]:
    """The closed form of :func:`rank_one_build` at s, and |det(s)|."""
    u1, u2 = p.u
    cv1, cv2 = p.v.conj()
    p1 = mobius_phi(p.omega1, s)
    p2 = mobius_phi(p.omega2 / p.r, s) / p.r
    den = 1.0 - u1 * cv1 * p1 - u2 * cv2 * p2
    if abs(den) < DEN_EPS:
        raise DegenerateDenominator(f"determinant modulus {abs(den):.3e} at {tuple(s)}")
    n_mat = np.array(
        [
            [p1 * (1.0 - u2 * cv2 * p2), u1 * cv2 * p1 * p2],
            [u2 * cv1 * p1 * p2, p2 * (1.0 - u1 * cv1 * p1)],
        ]
    )
    return complex(np.vdot(p.beta, n_mat @ p.gamma)) / den, abs(den)


@dataclass(frozen=True)
class CatalogCampaign:
    """Crosscheck plus the Schur bound and the observed denominator floor."""

    name: str
    n: int
    seed: int
    max_gap: float
    max_abs_f: float
    min_denominator: float


def catalog_campaign(p: RankOneParams, name: str, n: int, seed: int) -> CatalogCampaign:
    """Compare the closed form with the colligation evaluation on n seeded points."""
    colligation, _ = rank_one_build(p)
    pts = sample_rG(n, p.r, seed)
    gap = 0.0
    max_abs = 0.0
    min_den = float("inf")
    for s, f in zip(pts, evaluate(colligation, pts)[1][0]):
        val_closed, den = _closed_form_and_denominator(p, s)
        gap = max(gap, abs(val_closed - f))
        max_abs = max(max_abs, abs(val_closed))
        min_den = min(min_den, den)
    return CatalogCampaign(
        name=name, n=n, seed=seed, max_gap=gap, max_abs_f=max_abs, min_denominator=min_den
    )


def upsilon_params(r: float, omega: complex) -> RankOneParams:
    """Entry whose closed form collapses to the scaled fraction on r.G."""
    return RankOneParams(r=r, omega1=omega, omega2=omega, gamma=_E2, beta=_E2, u=_E1, v=_E1)


def magic_params(r: float, omega: complex) -> RankOneParams:
    """Entry whose closed form collapses to the unscaled fraction."""
    return RankOneParams(r=r, omega1=omega, omega2=omega, gamma=_E1, beta=_E1, u=_E2, v=_E2)


def blend_params(r: float, omega1: complex, omega2: complex) -> RankOneParams:
    """Entry mixing both fractions through a rotated frame."""
    return RankOneParams(
        r=r,
        omega1=omega1,
        omega2=omega2,
        gamma=np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
        beta=_E1,
        u=np.array([-1.0, 1.0], dtype=complex) / np.sqrt(2.0),
        v=_E2,
    )


def random_params(r: float, seed: int) -> RankOneParams:
    """A Haar-random valid parameter set; the generic member of the family."""
    rng = np.random.Generator(np.random.Philox(seed))
    omega1 = complex(np.exp(2j * np.pi * rng.uniform()))
    omega2 = complex(np.exp(2j * np.pi * rng.uniform()))
    frame1 = linalg.haar_unitary(2, rng)
    frame2 = linalg.haar_unitary(2, rng)
    return RankOneParams(
        r=r,
        omega1=omega1,
        omega2=omega2,
        gamma=frame1[:, 0].copy(),
        u=frame1[:, 1].copy(),
        beta=frame2[:, 0].copy(),
        v=frame2[:, 1].copy(),
    )


def named_params(name: str, r: float, seed: int) -> RankOneParams:
    """Resolve a catalog entry by name, drawing free parameters from the seed."""
    rng = np.random.Generator(np.random.Philox(seed))
    omega1 = complex(np.exp(2j * np.pi * rng.uniform()))
    omega2 = complex(np.exp(2j * np.pi * rng.uniform()))
    if name == "upsilon":
        return upsilon_params(r, omega1)
    if name == "magic":
        return magic_params(r, omega1)
    if name == "blend":
        return blend_params(r, omega1, omega2)
    if name == "rank-one":
        return random_params(r, seed)
    raise ConfigError(f"unknown catalog entry {name!r}; choose from {CATALOG_NAMES}")
