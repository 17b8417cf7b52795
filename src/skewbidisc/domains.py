"""Domain geometry for the symmetrized skew bidisc.

Points of C^2 are plain ``(complex, complex)`` tuples.  Throughout,
``r`` is a fixed parameter with 0 < r < 1 and

* ``G``      is the symmetrization of the bidisc D x D,
* ``G_r``    is the symmetrization of D x rD (the skew variant),
* ``r.G``    is the scaled copy {(r s1, r^2 s2) : (s1, s2) in G},

where the symmetrization map is pi(l1, l2) = (l1 + l2, l1 l2).

Membership in an open set cannot be decided exactly in floating point, so
every membership test takes a ``margin``: a point counts as inside when the
relevant moduli stay below 1 - margin.  The default keeps a thin safety
band; operations whose preconditions are bare open-set membership test with
margin 0.
"""

from __future__ import annotations

import cmath
from typing import Sequence

import numpy as np

from .errors import DegenerateDenominator, NotUnimodular, OutsideDomain, PoleAtInput, ShapeMismatch

Point2 = tuple[complex, complex]

MEMBERSHIP_MARGIN = 1e-9

# |1 - s1 z / 2| below this counts as a pole of the Mobius fraction.
POLE_EPS = 1e-14


def _point(p: Sequence[complex]) -> Point2:
    z1, z2 = p
    return complex(z1), complex(z2)


def check_r(r: float) -> float:
    """Validate the skew parameter: a real number strictly inside (0, 1)."""
    rf = float(r)
    if not 0.0 < rf < 1.0:
        raise ValueError(f"skew parameter must satisfy 0 < r < 1, got {r}")
    return rf


def pi_map(lam: Sequence[complex]) -> Point2:
    """Symmetrization (l1, l2) -> (l1 + l2, l1 l2)."""
    l1, l2 = _point(lam)
    return l1 + l2, l1 * l2


def t_r(lam: Sequence[complex], r: float) -> Point2:
    """Skewing map (l1, l2) -> (l1, r l2)."""
    l1, l2 = _point(lam)
    return l1, r * l2


def sigma(lam: Sequence[complex], r: float) -> Point2:
    """The involution (l1, l2) -> (r l2, l1 / r); fixes pi o t_r fibers."""
    l1, l2 = _point(lam)
    return r * l2, l1 / r


def scale_psi(q: Sequence[complex], r: float) -> Point2:
    """Biholomorphism G -> r.G, (q1, q2) -> (r q1, r^2 q2)."""
    q1, q2 = _point(q)
    return r * q1, r * r * q2


def scale_psi_inv(s: Sequence[complex], r: float) -> Point2:
    """Inverse of :func:`scale_psi`."""
    s1, s2 = _point(s)
    return s1 / r, s2 / (r * r)


def quad_roots(s: Sequence[complex]) -> tuple[complex, complex]:
    """Roots of z^2 - s1 z + s2, ordered by modulus (descending), then phase.

    Uses the numerically stable variant of the quadratic formula: the root
    whose numerator avoids cancellation is computed first and the second is
    recovered from the product, so ``sum = s1`` and ``product = s2`` hold to
    roundoff even for nearly degenerate pairs.
    """
    s1, s2 = _point(s)
    sq = cmath.sqrt(s1 * s1 - 4.0 * s2)
    if abs(s1 + sq) >= abs(s1 - sq):
        big_num = s1 + sq
    else:
        big_num = s1 - sq
    z1 = big_num / 2.0
    z2 = s2 / z1 if z1 != 0 else s1 - z1
    a, b = sorted((z1, z2), key=lambda z: (-abs(z), cmath.phase(z)))
    return a, b


def in_G(s: Sequence[complex], margin: float = MEMBERSHIP_MARGIN) -> bool:
    """Membership in the symmetrized bidisc: both roots inside the unit disc."""
    a, b = quad_roots(s)
    lim = 1.0 - margin
    return abs(a) < lim and abs(b) < lim


def in_Gr(s: Sequence[complex], r: float, margin: float = MEMBERSHIP_MARGIN) -> bool:
    """Membership in the skew symmetrization of D x rD.

    True when the roots of z^2 - s1 z + s2 admit an assignment with one
    root inside D and the other inside rD.
    """
    a, b = quad_roots(s)
    lim = 1.0 - margin
    return (abs(a) < lim and abs(b) < r * lim) or (abs(b) < lim and abs(a) < r * lim)


def in_rG(s: Sequence[complex], r: float, margin: float = MEMBERSHIP_MARGIN) -> bool:
    """Membership in the scaled domain r.G: both roots inside rD."""
    return in_G(scale_psi_inv(s, r), margin)


def in_bidisc(lam: Sequence[complex], margin: float = MEMBERSHIP_MARGIN) -> bool:
    """Componentwise membership in the open unit bidisc."""
    l1, l2 = _point(lam)
    lim = 1.0 - margin
    return abs(l1) < lim and abs(l2) < lim


def in_skew_bidisc(lam: Sequence[complex], r: float, margin: float = MEMBERSHIP_MARGIN) -> bool:
    """Membership in rD x D, the natural domain of the skew involution."""
    l1, l2 = _point(lam)
    lim = 1.0 - margin
    return abs(l1) < r * lim and abs(l2) < lim


def point_stack(p, r: float, domain: str = "r.G") -> tuple[np.ndarray, bool]:
    """One point (2,) or a stack (N, 2) as an (N, 2) complex array, every point checked.

    ``domain`` is ``"r.G"`` or ``"rD x D"``, tested with margin 0.  Returns
    the stack and whether ``p`` was a single point.  Raises ShapeMismatch
    for any other shape and OutsideDomain naming the first point outside.
    """
    pts = np.asarray(p, dtype=complex)
    if pts.size and (pts.ndim > 2 or pts.shape[-1:] != (2,)):
        raise ShapeMismatch(f"points must have shape (2,) or (N, 2), got {pts.shape}")
    stack = pts.reshape(-1, 2)
    member = {"r.G": in_rG, "rD x D": in_skew_bidisc}[domain]
    for z1, z2 in stack.tolist():
        if not member((z1, z2), r, margin=0.0):
            raise OutsideDomain(f"point ({z1}, {z2}) is not in {domain} for r={r}")
    return stack, pts.shape == (2,)


def _rng(seed: int) -> np.random.Generator:
    # Counter-based generator: cheap to seed, identical across platforms.
    return np.random.Generator(np.random.Philox(seed))


def sample_disc(n: int, seed: int, radius: float = 1.0) -> list[complex]:
    """n rejection-sampled points of the open disc of given radius."""
    rng = _rng(seed)
    out: list[complex] = []
    while len(out) < n:
        batch = rng.uniform(-1.0, 1.0, size=(max(2 * (n - len(out)), 16), 2))
        for x, y in batch:
            z = complex(x, y)
            if abs(z) < 1.0:
                out.append(radius * z)
                if len(out) == n:
                    break
    return out


def sample_rG(n: int, r: float, seed: int) -> list[Point2]:
    """n seeded pseudo-random points of r.G.

    Draws pairs from the open unit disc by rejection from the bounding
    square and pushes them through the symmetrization and the scaling, so
    every output lies strictly inside r.G.  Identical (n, r, seed) always
    produce the identical list.
    """
    check_r(r)
    return _sample_disc_pairs(n, seed, lambda a, b: (r * (a + b), r * r * a * b))


def sample_skew_bidisc(n: int, r: float, seed: int) -> list[Point2]:
    """n seeded pseudo-random points of rD x D."""
    check_r(r)
    return _sample_disc_pairs(n, seed, lambda a, b: (r * a, b))


def _sample_disc_pairs(n: int, seed: int, to_point) -> list[Point2]:
    """``to_point(a, b)`` for n seeded pairs (a, b) of points of the open unit disc."""
    rng = _rng(seed)
    pts: list[Point2] = []
    while len(pts) < n:
        batch = rng.uniform(-1.0, 1.0, size=(max(4 * (n - len(pts)), 32), 2))
        discs = [complex(x, y) for x, y in batch if x * x + y * y < 1.0]
        for a, b in zip(discs[0::2], discs[1::2]):
            pts.append(to_point(a, b))
            if len(pts) == n:
                break
    return pts


def mobius_phi(z: complex, s: Sequence[complex]) -> complex:
    """The scalar fraction (s2 z - s1/2) / (1 - s1 z / 2)."""
    s1, s2 = _point(s)
    den = 1.0 - 0.5 * s1 * z
    if abs(den) < POLE_EPS:
        raise PoleAtInput(f"denominator modulus {abs(den):.3e} at z={z}")
    return (s2 * z - 0.5 * s1) / den


def magic_phi(omega: complex, s: Sequence[complex]) -> complex:
    """The rational inner-type function on G attached to a unimodular omega."""
    if abs(abs(omega) - 1.0) > 1e-12:
        raise NotUnimodular(f"|omega| = {abs(omega)!r} is not 1")
    if not in_G(s, margin=0.0):
        raise OutsideDomain(f"point {tuple(s)} is not in G")
    return mobius_phi(omega, s)


def upsilon(omega: complex, r: float, s: Sequence[complex]) -> complex:
    """The scaled counterpart of :func:`magic_phi` living on r.G.

    Evaluates r^{-1} (s2 omega r^{-1} - s1/2) / (1 - s1 omega r^{-1} / 2);
    unimodular ``omega`` keeps its modulus below 1 on all of r.G.
    """
    if abs(abs(omega) - 1.0) > 1e-12:
        raise NotUnimodular(f"|omega| = {abs(omega)!r} is not 1")
    check_r(r)
    point_stack(s, r)
    s1, s2 = _point(s)
    w = omega / r
    den = 1.0 - 0.5 * s1 * w
    if abs(den) < POLE_EPS:
        raise PoleAtInput(f"denominator modulus {abs(den):.3e}")
    return (s2 * w - 0.5 * s1) / den / r


def fq_disc(q: Sequence[complex]) -> tuple[complex, float]:
    """Center and radius of the image disc of z -> (q2 z - q1/2)/(1 - q1 z / 2).

    The fraction maps the closed unit disc onto a closed disc whenever
    |q1| < 2; the center is 2 (conj(q1) q2 - q1) / (4 - |q1|^2) and the
    radius |q1^2 - 4 q2| / (4 - |q1|^2).
    """
    q1, q2 = _point(q)
    d = 4.0 - abs(q1) ** 2
    if abs(q1) >= 2.0:
        raise DegenerateDenominator(f"|q1| = {abs(q1)} >= 2, image is not a disc")
    center = 2.0 * (q1.conjugate() * q2 - q1) / d
    radius = abs(q1 * q1 - 4.0 * q2) / d
    return center, radius
