"""Domain geometry for the symmetrized skew bidisc.

Points of C^2 are pairs ``(z1, z2)`` of complex numbers.  Throughout,
``r`` is a fixed parameter with 0 < r < 1 and

* ``G``      is the symmetrization of the bidisc D x D,
* ``G_r``    is the symmetrization of D x rD (the skew variant),
* ``r.G``    is the scaled copy {(r s1, r^2 s2) : (s1, s2) in G},

where the symmetrization map is pi(l1, l2) = (l1 + l2, l1 l2).

:func:`sigma`, :func:`mobius_phi` and :func:`upsilon` take one point or an
``(N, 2)`` stack of points, and return one value or the stacked values.
:func:`sample_rG` returns its seeded points as an ``(N, 2)`` complex array,
ready for any stacked function; :func:`sample_skew_bidisc` still returns a
list of ``(z1, z2)`` tuples, since callers extend it with ``+``.
"""

from __future__ import annotations

import cmath
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateDenominator,
    InvalidParams,
    NotUnimodular,
    OutsideDomain,
    PoleAtInput,
    ShapeMismatch,
)

Point2 = tuple[complex, complex]

# |1 - s1 z / 2| below this counts as a pole of the Mobius fraction.
POLE_EPS = 1e-14

# Membership gap above which the array screen of point_stack settles a point of r.G.
RG_SCREEN_GAP = 1e-6

# Root moduli closer than this (relative) are ordered by the scalar quad_roots.
ROOT_TIE = 1e-12


def _point(p: Sequence[complex]) -> Point2:
    z1, z2 = p
    return complex(z1), complex(z2)


def check_r(r: float) -> float:
    """Validate the skew parameter: a real number strictly inside (0, 1), else InvalidParams."""
    rf = float(r)
    if not 0.0 < rf < 1.0:
        raise InvalidParams(f"skew parameter must satisfy 0 < r < 1, got {r}")
    return rf


def pi_map(lam: Sequence[complex]) -> Point2:
    """Symmetrization (l1, l2) -> (l1 + l2, l1 l2)."""
    l1, l2 = _point(lam)
    return l1 + l2, l1 * l2


def t_r(lam: Sequence[complex], r: float) -> Point2:
    """Skewing map (l1, l2) -> (l1, r l2)."""
    l1, l2 = _point(lam)
    return l1, r * l2


def sigma(lam, r: float):
    """The involution (l1, l2) -> (r l2, l1 / r); fixes pi o t_r fibers.

    Maps a point to a tuple and an (N, 2) stack to an (N, 2) array.
    """
    stack, one = _as_stack(lam)
    out = np.column_stack([r * stack[:, 1], stack[:, 0] / r])
    return tuple(out[0].tolist()) if one else out


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


def _quad_roots_stack(stack: np.ndarray) -> np.ndarray:
    """:func:`quad_roots` at each point of an (N, 2) stack, as the rows of an (N, 2) array.

    The same stable branch, the same rule for z1 = 0 and the same order.  The
    discriminant is formed in real arithmetic in the order Python's complex
    operations take, so a near-double root gets the same square root; the rest
    is numpy's complex arithmetic, which can differ from Python's in the last
    bits.  Where the two moduli are within ``ROOT_TIE`` of each other, such a
    difference could swap the roots, and :func:`quad_roots` orders them itself.
    """
    s1, s2 = stack[:, 0], stack[:, 1]
    x, y = s1.real, s1.imag
    disc = np.empty(len(stack), dtype=complex)
    disc.real = (x * x - y * y) - (4.0 * s2.real - 0.0 * s2.imag)
    disc.imag = (x * y + y * x) - (4.0 * s2.imag + 0.0 * s2.real)
    sq = np.sqrt(disc)
    plus, minus = s1 + sq, s1 - sq
    # hypot is the modulus Python's abs takes; np.abs can differ in the last bit.
    big = np.where(np.hypot(plus.real, plus.imag) >= np.hypot(minus.real, minus.imag), plus, minus)
    z1 = big / 2.0
    nonzero = z1 != 0
    z2 = np.where(nonzero, s2 / np.where(nonzero, z1, 1.0), s1 - z1)
    m1, m2 = np.hypot(z1.real, z1.imag), np.hypot(z2.real, z2.imag)
    swap = m2 > m1
    roots = np.column_stack([np.where(swap, z2, z1), np.where(swap, z1, z2)])
    for k in np.flatnonzero(np.abs(m1 - m2) <= ROOT_TIE * np.maximum(m1, m2)).tolist():
        roots[k] = quad_roots(stack[k].tolist())
    return roots


def in_G(s: Sequence[complex]) -> bool:
    """Membership in the symmetrized bidisc: both roots inside the unit disc."""
    a, b = quad_roots(s)
    return abs(a) < 1.0 and abs(b) < 1.0


def in_Gr(s: Sequence[complex], r: float) -> bool:
    """Membership in the skew symmetrization of D x rD.

    True when the roots of z^2 - s1 z + s2 admit an assignment with one
    root inside D and the other inside rD.
    """
    a, b = quad_roots(s)
    return (abs(a) < 1.0 and abs(b) < r) or (abs(b) < 1.0 and abs(a) < r)


def in_rG(s: Sequence[complex], r: float) -> bool:
    """Membership in the scaled domain r.G: both roots inside rD."""
    return in_G(scale_psi_inv(s, r))


def in_skew_bidisc(lam: Sequence[complex], r: float) -> bool:
    """Membership in rD x D, the natural domain of the skew involution."""
    l1, l2 = _point(lam)
    return abs(l1) < r and abs(l2) < 1.0


def point_stack(p, r: float, domain: str = "r.G") -> tuple[np.ndarray, bool]:
    """One point (2,) or a stack (N, 2) as an (N, 2) complex array, every point checked.

    Returns the stack and whether ``p`` was a single point.  Raises ShapeMismatch for
    any other shape and OutsideDomain naming the first point :func:`outside_points` finds.
    """
    stack, one = _as_stack(p)
    bad = outside_points(stack, r, domain)
    if bad:
        z1, z2 = stack[bad[0]].tolist()
        raise OutsideDomain(f"point ({z1}, {z2}) is not in {domain} for r={r}")
    return stack, one


def _as_stack(p) -> tuple[np.ndarray, bool]:
    """One point (2,) or a stack (N, 2) as an (N, 2) complex array, and whether it was one point."""
    pts = np.asarray(p, dtype=complex)
    if not (pts.shape in ((2,), (0,)) or (pts.ndim == 2 and pts.shape[1] == 2)):
        raise ShapeMismatch(f"points must have shape (2,) or (N, 2), got {pts.shape}")
    return pts.reshape(-1, 2), pts.shape == (2,)


def outside_points(stack: np.ndarray, r: float, domain: str = "r.G") -> list[int]:
    """Indices, in order, of the points of an (N, 2) stack outside ``domain``.

    ``domain`` is ``"r.G"`` or ``"rD x D"``.  An array screen settles the points it
    shows to be inside: the exact moduli test on ``rD x D``, :func:`_rG_screen` on
    ``r.G``.  The scalar ``in_skew_bidisc`` or ``in_rG`` decides the rest.
    """
    member, screen = {
        "r.G": (in_rG, _rG_screen),
        "rD x D": (in_skew_bidisc, _skew_bidisc_screen),
    }[domain]
    unsettled = np.flatnonzero(~screen(stack, r)).tolist()
    return [k for k in unsettled if not member(tuple(stack[k].tolist()), r)]


def _rG_screen(stack: np.ndarray, r: float) -> np.ndarray:
    """Points of an (N, 2) stack that are certainly in r.G.

    A point q of C^2 lies in G exactly when |q1 - conj(q1) q2| < 1 - |q2|^2.
    Where that gap exceeds ``RG_SCREEN_GAP`` at q = (s1/r, s2/r^2), both
    roots stay about ``RG_SCREEN_GAP / 5`` inside the unit circle, far beyond
    the root error of :func:`quad_roots` (about 1e-8 even near double
    roots), so :func:`in_rG` accepts the point too.
    """
    q1 = stack[:, 0] / r
    q2 = stack[:, 1] / (r * r)
    return np.abs(q1 - q1.conj() * q2) < 1.0 - np.abs(q2) ** 2 - RG_SCREEN_GAP


def _skew_bidisc_screen(stack: np.ndarray, r: float) -> np.ndarray:
    """Points of an (N, 2) stack in rD x D, exactly as :func:`in_skew_bidisc` decides.

    The moduli come from ``np.hypot``, the libm hypot that Python's ``abs``
    uses; ``np.abs`` of a complex array can differ from it in the last bit.
    """
    return (np.hypot(stack.real, stack.imag) < (r, 1.0)).all(axis=1)


def _rng(seed: int) -> np.random.Generator:
    # Counter-based generator: cheap to seed, identical across platforms.
    return np.random.Generator(np.random.Philox(seed))


def _check_size(n: int) -> None:
    if n < 0:
        raise InvalidParams(f"sample size must be >= 0, got {n}")


def sample_disc(n: int, seed: int) -> list[complex]:
    """n rejection-sampled points of the open unit disc."""
    _check_size(n)
    rng = _rng(seed)
    out: list[complex] = []
    while len(out) < n:
        batch = rng.uniform(-1.0, 1.0, size=(max(2 * (n - len(out)), 16), 2))
        for x, y in batch:
            z = complex(x, y)
            if abs(z) < 1.0:
                out.append(z)
                if len(out) == n:
                    break
    return out


def sample_rG(n: int, r: float, seed: int) -> np.ndarray:
    """n seeded pseudo-random points of r.G, as a C-contiguous (n, 2) complex array.

    Draws pairs from the open unit disc by rejection from the bounding
    square and pushes them through the symmetrization and the scaling, so
    every output lies strictly inside r.G.  Identical (n, r, seed) always
    give the identical array.
    """
    check_r(r)
    ax, ay, bx, by = _sample_disc_pairs(n, seed)
    # (r (a + b), r^2 a b) in real arithmetic, in the order Python's complex
    # operations take: numpy's complex multiply can differ in the last bit.
    cx, cy = r * r * ax, r * r * ay
    return _points(r * (ax + bx), r * (ay + by), cx * bx - cy * by, cx * by + cy * bx)


def sample_skew_bidisc(n: int, r: float, seed: int) -> list[Point2]:
    """n seeded pseudo-random points of rD x D, as a list of (l1, l2) tuples."""
    check_r(r)
    ax, ay, bx, by = _sample_disc_pairs(n, seed)
    z = _points(r * ax, r * ay, bx, by)
    return list(zip(z[:, 0].tolist(), z[:, 1].tolist()))


def _sample_disc_pairs(n: int, seed: int) -> np.ndarray:
    """Rows Re a, Im a, Re b, Im b of n seeded pairs (a, b) of points of the open unit disc.

    Each batch of the square's points keeps those inside the disc and pairs
    them off in order; an unpaired last point and pairs beyond n are dropped.
    """
    _check_size(n)
    rng = _rng(seed)
    pairs = [np.empty((0, 4))]
    need = n
    while need > 0:
        batch = rng.uniform(-1.0, 1.0, size=(max(4 * need, 32), 2))
        inside = batch[:, 0] * batch[:, 0] + batch[:, 1] * batch[:, 1] < 1.0
        discs = np.compress(inside, batch, axis=0)
        take = min(len(discs) // 2, need)
        pairs.append(discs[: 2 * take].reshape(take, 4))
        need -= take
    return np.concatenate(pairs).T


def _points(x1, y1, x2, y2) -> np.ndarray:
    """The points (x1 + i y1, x2 + i y2) as the rows of an (N, 2) complex array."""
    return np.stack([x1, y1, x2, y2], axis=-1).view(complex)



def mobius_phi(z: complex, s):
    """The scalar fraction (s2 z - s1/2) / (1 - s1 z / 2) at a point, or at each point of a stack.

    Raises PoleAtInput naming the first point where |1 - s1 z / 2| < POLE_EPS or is NaN.
    """
    stack, one = _as_stack(s)
    s1, s2 = stack.T
    den = 1.0 - 0.5 * s1 * z
    _denominator_moduli(den, stack, POLE_EPS, PoleAtInput, f"pole of the fraction at z={z}")
    val = (s2 * z - 0.5 * s1) / den
    return complex(val[0]) if one else val


def _denominator_moduli(den: np.ndarray, stack: np.ndarray, eps: float, error: type, what: str):
    """|den| at each point of a stack; raises ``error`` naming the first point with |den| < eps or NaN."""
    mod = np.abs(den)
    small = ~(mod >= eps)
    if small.any():
        k = int(np.argmax(small))
        z1, z2 = stack[k].tolist()
        raise error(f"{what}: denominator modulus {mod[k]:.3e} at point {k} ({z1}, {z2})")
    return mod


def magic_phi(omega: complex, s: Sequence[complex]) -> complex:
    """The rational inner-type function on G attached to a unimodular omega."""
    if not abs(abs(omega) - 1.0) <= 1e-12:  # a NaN modulus is refused too
        raise NotUnimodular(f"|omega| = {abs(omega)!r} is not 1")
    if not in_G(s):
        raise OutsideDomain(f"point {tuple(s)} is not in G")
    return mobius_phi(omega, s)


def upsilon(omega: complex, r: float, s):
    """The scaled counterpart of :func:`magic_phi` living on r.G, at a point or a stack.

    Evaluates r^{-1} (s2 omega r^{-1} - s1/2) / (1 - s1 omega r^{-1} / 2);
    unimodular ``omega`` keeps its modulus below 1 on all of r.G.
    """
    if not abs(abs(omega) - 1.0) <= 1e-12:  # a NaN modulus is refused too
        raise NotUnimodular(f"|omega| = {abs(omega)!r} is not 1")
    check_r(r)
    stack, one = point_stack(s, r)
    s1, s2 = stack.T
    w = omega / r
    den = 1.0 - 0.5 * s1 * w
    _denominator_moduli(den, stack, POLE_EPS, PoleAtInput, f"pole of upsilon at omega={omega}")
    val = (s2 * w - 0.5 * s1) / den / r
    return complex(val[0]) if one else val


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
