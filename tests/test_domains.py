import cmath
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbidisc import domains
from skewbidisc.errors import (
    DegenerateDenominator,
    InvalidParams,
    NotUnimodular,
    OutsideDomain,
    PoleAtInput,
    ShapeMismatch,
)

disc_complex = st.complex_numbers(max_magnitude=0.97, allow_nan=False, allow_infinity=False)
r_values = st.floats(min_value=0.05, max_value=0.95)


@given(disc_complex, disc_complex)
@settings(max_examples=60, deadline=None)
def test_pi_map_is_symmetric(l1, l2):
    assert domains.pi_map((l1, l2)) == domains.pi_map((l2, l1))


@given(disc_complex, disc_complex, r_values)
@settings(max_examples=60, deadline=None)
def test_sigma_is_an_involution(l1, l2, r):
    lam = (r * l1, l2)
    back = domains.sigma(domains.sigma(lam, r), r)
    assert abs(back[0] - lam[0]) < 1e-12
    assert abs(back[1] - lam[1]) < 1e-12


@given(disc_complex, disc_complex, r_values)
@settings(max_examples=60, deadline=None)
def test_sigma_fixes_the_skewed_symmetrization(l1, l2, r):
    lam = (r * l1, l2)
    s = domains.pi_map(domains.t_r(lam, r))
    s_sig = domains.pi_map(domains.t_r(domains.sigma(lam, r), r))
    assert abs(s[0] - s_sig[0]) < 1e-12
    assert abs(s[1] - s_sig[1]) < 1e-12


def test_t_r_and_scale_psi():
    assert domains.t_r((0.3 + 0.1j, 0.5), 0.5) == (0.3 + 0.1j, 0.25)
    assert domains.scale_psi((1.2, 0.7), 0.5) == (0.6, 0.175)
    q = (0.4 + 0.2j, -0.1j)
    back = domains.scale_psi_inv(domains.scale_psi(q, 0.3), 0.3)
    assert abs(back[0] - q[0]) < 1e-14 and abs(back[1] - q[1]) < 1e-14


def test_quad_roots_frozen_example():
    a, b = domains.quad_roots((0.5, 0.08))
    assert a == pytest.approx(0.25 - 0.13228756555322954j)
    assert b == pytest.approx(0.25 + 0.13228756555322954j)


def test_quad_roots_double_root():
    z0 = 0.4 - 0.3j
    a, b = domains.quad_roots((2 * z0, z0 * z0))
    assert a == pytest.approx(z0, abs=1e-12)
    assert b == pytest.approx(z0, abs=1e-12)


@given(disc_complex, disc_complex)
@settings(max_examples=80, deadline=None)
def test_quad_roots_recover_sum_and_product(z1, z2):
    s = (z1 + z2, z1 * z2)
    a, b = domains.quad_roots(s)
    assert abs(a + b - s[0]) < 1e-12
    assert abs(a * b - s[1]) < 1e-12


def test_quad_roots_ordering():
    a, b = domains.quad_roots((0.5 + 0.5j, -0.3))
    assert abs(a) >= abs(b)
    a, b = domains.quad_roots((0.0, -0.25))  # roots +-0.5, equal modulus
    assert cmath.phase(a) <= cmath.phase(b)


def _roots_reference(stack):
    return np.array([domains.quad_roots(p) for p in stack.tolist()], dtype=complex).reshape(-1, 2)


def _assert_roots_match(stack):
    roots = domains._quad_roots_stack(stack)
    assert roots.shape == (len(stack), 2)
    assert np.max(np.abs(roots - _roots_reference(stack)), initial=0.0) <= 1e-13


@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_stacked_roots_match_quad_roots_on_samples(r):
    for n in (0, 1, 2000):
        _assert_roots_match(domains.sample_rG(n, r, seed=26))


@pytest.mark.parametrize("rho", [0.5, 1 - 1e-6, 1 - 1e-9])
@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_stacked_roots_match_quad_roots_at_close_and_equal_moduli(r, rho):
    rng = np.random.Generator(np.random.Philox(27))
    z1, z2 = rho * r * np.exp(2j * np.pi * rng.random((2, 500)))
    near = z1 * (1.0 + 1e-9 * rng.standard_normal(500))
    for a, b in ((z1, z2), (z1, near), (z1, z1), (z1, z1.conj())):
        _assert_roots_match(np.column_stack([a + b, a * b]))


def test_stacked_roots_match_quad_roots_at_a_zero_product():
    stack = np.column_stack([domains.sample_rG(300, 0.5, seed=28)[:, 0], np.zeros(300)])
    stack[:3, 0] = (0.0, complex(0.0, -0.0), -0.25)
    _assert_roots_match(stack)
    roots = domains._quad_roots_stack(stack)
    np.testing.assert_array_equal(roots[:, 1], 0.0)


def test_membership_basics():
    assert domains.in_G((0.0, 0.0))
    assert not domains.in_G((2.0, 1.0))  # double root at 1
    assert domains.in_Gr((1.35, 0.405), 0.5)  # from factors 0.9 and 0.9
    assert not domains.in_Gr((1.9, 0.9), 0.5)
    assert domains.in_skew_bidisc((0.4, 0.9), 0.5)
    assert not domains.in_skew_bidisc((0.6, 0.5), 0.5)


@pytest.mark.parametrize("r", [0.25, 0.5, 0.9])
def test_boundary_point_outside_scaled_domain(r):
    assert not domains.in_rG((2 * r, r * r), r)


def test_scale_psi_maps_G_samples_into_rG():
    rng = np.random.default_rng(2)
    for _ in range(50):
        z1 = complex(*rng.uniform(-0.7, 0.7, 2))
        z2 = complex(*rng.uniform(-0.7, 0.7, 2))
        q = domains.pi_map((z1, z2))
        assert domains.in_G(q)
        assert domains.in_rG(domains.scale_psi(q, 0.3), 0.3)


def test_sample_rG_membership_and_determinism():
    pts1 = domains.sample_rG(200, 0.5, seed=7)
    pts2 = domains.sample_rG(200, 0.5, seed=7)
    assert np.array_equal(pts1, pts2)
    assert all(domains.in_rG(p, 0.5) for p in pts1)
    assert not np.array_equal(domains.sample_rG(200, 0.5, seed=8), pts1)


def test_sample_rG_validates_r():
    with pytest.raises(InvalidParams):
        domains.sample_rG(5, 1.5, seed=0)


def test_sample_skew_bidisc_membership():
    pts = domains.sample_skew_bidisc(100, 0.25, seed=3)
    assert all(domains.in_skew_bidisc(p, 0.25) for p in pts)
    assert pts == domains.sample_skew_bidisc(100, 0.25, seed=3)


def test_mobius_phi_contracts_symmetrized_points():
    # For s = (2 z0, z0^2) the fraction at z = 1 collapses to -z0.
    for z0 in (0.3, -0.4 + 0.2j, 0.1j):
        val = domains.mobius_phi(1.0, (2 * z0, z0 * z0))
        assert val == pytest.approx(-z0)


def test_mobius_phi_pole():
    with pytest.raises(PoleAtInput):
        domains.mobius_phi(1.0, (2.0, 0.5))


# The stacked fractions against one-point formulas written out here, in Python
# complex arithmetic.
STACK_DIFF_TOL = 1e-13
OMEGA = np.exp(1.3j)


def _phi_point(z, s):
    s1, s2 = complex(s[0]), complex(s[1])
    return (s2 * z - 0.5 * s1) / (1.0 - 0.5 * s1 * z)


def _upsilon_point(omega, r, s):
    s1, s2 = complex(s[0]), complex(s[1])
    w = omega / r
    return (s2 * w - 0.5 * s1) / (1.0 - 0.5 * s1 * w) / r


@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
@pytest.mark.parametrize("n", [0, 1, 300])
def test_stacked_fractions_match_one_point_formulas(r, n):
    pts = domains.sample_rG(n, r, seed=17)
    stack = np.array(pts, dtype=complex).reshape(-1, 2)
    for z in (OMEGA, OMEGA / r):
        val = domains.mobius_phi(z, stack)
        assert val.shape == (n,)
        ref = np.array([_phi_point(z, s) for s in pts], dtype=complex)
        assert np.max(np.abs(val - ref), initial=0.0) <= STACK_DIFF_TOL
    ups = domains.upsilon(OMEGA, r, stack)
    assert ups.shape == (n,)
    ref = np.array([_upsilon_point(OMEGA, r, s) for s in pts], dtype=complex)
    assert np.max(np.abs(ups - ref), initial=0.0) <= STACK_DIFF_TOL
    for s in pts[:3]:
        one_phi, one_ups = domains.mobius_phi(OMEGA, s), domains.upsilon(OMEGA, r, s)
        assert type(one_phi) is complex and type(one_ups) is complex
        assert abs(one_phi - _phi_point(OMEGA, s)) <= STACK_DIFF_TOL
        assert abs(one_ups - _upsilon_point(OMEGA, r, s)) <= STACK_DIFF_TOL


@pytest.mark.parametrize("k", [0, 3, 6])
def test_stacked_pole_names_its_point(k):
    stack = np.array(domains.sample_rG(7, 0.5, seed=18), dtype=complex)
    stack[k] = (2.0, 0.5)
    with pytest.raises(PoleAtInput, match=rf"point {k} \(\(2\+0j\), \(0\.5\+0j\)\)"):
        domains.mobius_phi(1.0, stack)


def test_sigma_on_a_stack_is_sigma_at_each_point():
    lam = domains.sample_skew_bidisc(50, 0.4, seed=20)
    stacked = domains.sigma(np.array(lam, dtype=complex), 0.4)
    assert stacked.shape == (50, 2)
    ref = np.array([(0.4 * l2, l1 / 0.4) for l1, l2 in lam], dtype=complex)
    assert np.max(np.abs(stacked - ref)) <= STACK_DIFF_TOL
    assert type(domains.sigma(lam[0], 0.4)) is tuple
    assert domains.sigma(np.zeros((0, 2)), 0.4).shape == (0, 2)


def test_magic_phi_frozen_value():
    assert domains.magic_phi(1.0, (0.5, 0.06)) == pytest.approx(-19.0 / 75.0)


def test_magic_phi_guards():
    with pytest.raises(NotUnimodular):
        domains.magic_phi(1.1, (0.0, 0.0))
    with pytest.raises(OutsideDomain):
        domains.magic_phi(1.0, (2.5, 1.0))


# A NaN modulus compares False with every tolerance, so these guards must
# accept only what lies within it.
NAN_OMEGAS = [complex("nan"), complex(1.0, float("nan"))]


@pytest.mark.parametrize("omega", NAN_OMEGAS)
def test_magic_phi_refuses_a_nan_omega(omega):
    with pytest.raises(NotUnimodular):
        domains.magic_phi(omega, (0.1, 0.01))


@pytest.mark.parametrize("omega", NAN_OMEGAS)
def test_upsilon_refuses_a_nan_omega(omega):
    with pytest.raises(NotUnimodular):
        domains.upsilon(omega, 0.5, (0.1, 0.01))


def test_mobius_phi_names_a_nan_denominator_as_a_pole():
    with pytest.raises(PoleAtInput, match="denominator modulus nan at point 0"):
        domains.mobius_phi(complex("nan"), (0.1, 0.01))
    stack = np.array(domains.sample_rG(5, 0.5, seed=21), dtype=complex)
    stack[3] = (float("nan"), 0.0)
    with pytest.raises(PoleAtInput, match="denominator modulus nan at point 3 "):
        domains.mobius_phi(1.0, stack)


def test_magic_phi_is_bounded_on_G():
    rng = np.random.default_rng(4)
    for _ in range(200):
        z1 = complex(*rng.uniform(-0.7, 0.7, 2))
        z2 = complex(*rng.uniform(-0.7, 0.7, 2))
        s = domains.pi_map((z1, z2))
        assert abs(domains.magic_phi(np.exp(0.7j), s)) <= 1.0 + 1e-12


def test_upsilon_matches_scaled_fraction():
    r = 0.5
    omega = np.exp(1.3j)
    for s in domains.sample_rG(200, r, seed=5):
        direct = domains.upsilon(omega, r, s)
        reference = domains.mobius_phi(omega / r, s) / r
        assert abs(direct - reference) < 1e-12
        assert abs(direct) <= 1.0 + 1e-12


def test_upsilon_guards():
    with pytest.raises(NotUnimodular):
        domains.upsilon(0.9, 0.5, (0.0, 0.0))
    with pytest.raises(OutsideDomain):
        domains.upsilon(1.0, 0.5, (1.2, 0.3))  # in G but not in r.G
    stack = np.vstack([domains.sample_rG(5, 0.5, seed=19), [(1.2, 0.3)]])
    with pytest.raises(OutsideDomain, match=r"\(\(1\.2\+0j\), \(0\.3\+0j\)\)"):
        domains.upsilon(1.0, 0.5, stack)


def test_fq_disc_center_free_case():
    center, radius = domains.fq_disc((0.0, 0.3 - 0.4j))
    assert center == 0.0
    assert radius == pytest.approx(0.5)


def test_fq_disc_matches_boundary_image():
    # The fraction maps the unit circle onto the circle |w - center| = radius.
    q = (0.7 - 0.2j, 0.1 + 0.3j)
    center, radius = domains.fq_disc(q)
    for theta in np.linspace(0.0, 2 * np.pi, 200, endpoint=False):
        w = domains.mobius_phi(np.exp(1j * theta), q)
        assert abs(abs(w - center) - radius) < 1e-10


def test_fq_disc_degenerate():
    with pytest.raises(DegenerateDenominator):
        domains.fq_disc((2.0, 0.0))


@pytest.mark.parametrize("q1", NAN_OMEGAS)
def test_fq_disc_refuses_a_nan_q1(q1):
    with pytest.raises(DegenerateDenominator, match=r"\|q1\| = nan is not below 2"):
        domains.fq_disc((q1, 0.0))


def _sample_disc_pairs_reference(n, seed, to_point):
    """The one-pair-at-a-time rejection loop the array sampler replaced."""
    rng = np.random.Generator(np.random.Philox(seed))
    pts = []
    while len(pts) < n:
        batch = rng.uniform(-1.0, 1.0, size=(max(4 * (n - len(pts)), 32), 2))
        discs = [complex(x, y) for x, y in batch if x * x + y * y < 1.0]
        for a, b in zip(discs[0::2], discs[1::2]):
            pts.append(to_point(a, b))
            if len(pts) == n:
                break
    return pts


def _hex(pts):
    return [tuple(x.hex() for z in p for x in (z.real, z.imag)) for p in pts]


@pytest.mark.parametrize("r", [1e-4, 0.3, 0.5, 1 - 1e-6])
def test_array_samplers_reproduce_the_scalar_stream_bit_for_bit(r):
    # 7 sizes x 6 seeds x 4 values of r = 168 (n, r, seed) cases per sampler.
    for n in (0, 1, 2, 7, 33, 100, 257):
        for seed in (0, 1, 2, 17, 1234, 2**31 - 1):
            rg = domains.sample_rG(n, r, seed)
            skew = domains.sample_skew_bidisc(n, r, seed)
            assert rg.dtype == np.complex128 and rg.shape == (n, 2) and rg.flags.c_contiguous
            assert isinstance(skew, list) and all(type(p) is tuple for p in skew)
            assert all(type(z) is complex for p in skew for z in p)
            ref_rg = _sample_disc_pairs_reference(
                n, seed, lambda a, b: (r * (a + b), r * r * a * b)
            )
            ref_skew = _sample_disc_pairs_reference(n, seed, lambda a, b: (r * a, b))
            assert _hex(rg) == _hex(ref_rg)
            assert _hex(skew) == _hex(ref_skew)


@pytest.mark.parametrize("r", [1e-4, 0.5, 1 - 1e-6])
def test_first_twenty_points_are_a_prefix_of_any_larger_sample(r):
    # schur_certify's pair grid is the first min(n, 20) columns of its n points,
    # which is the grid sample_rG(min(n, 20), r, seed) draws on its own.
    for seed in range(200):
        for n in (0, 1, 19, 20, 21, 300, 1000):
            m = min(n, 20)
            assert _hex(domains.sample_rG(m, r, seed)) == _hex(domains.sample_rG(n, r, seed)[:m])


def test_samplers_refuse_negative_sizes():
    for sample in (
        lambda: domains.sample_rG(-3, 0.5, 1),
        lambda: domains.sample_skew_bidisc(-1, 0.5, 1),
        lambda: domains.sample_disc(-1, 0),
    ):
        with pytest.raises(InvalidParams, match="sample size"):
            sample()


def test_point_stack_shapes():
    r = 0.5
    for empty in ([], np.zeros(0), np.zeros((0, 2))):
        stack, one = domains.point_stack(empty, r)
        assert stack.shape == (0, 2) and not one
    stack, one = domains.point_stack((0.1, 0.01), r)
    assert stack.shape == (1, 2) and one
    for bad in (np.zeros((0, 5)), np.zeros((0, 2, 2)), np.zeros(3), np.zeros((2, 3))):
        with pytest.raises(ShapeMismatch):
            domains.point_stack(bad, r)


@pytest.mark.parametrize("domain", ["r.G", "rD x D"])
def test_outside_points_decides_a_single_point_as_the_scalar_test(domain):
    r = 0.5
    member = domains.in_rG if domain == "r.G" else domains.in_skew_bidisc
    pts = _adversarial_rG_points(r, np.random.default_rng(5))[::450]  # 500 points
    for p in pts:
        expected = [] if member(tuple(p.tolist()), r) else [0]
        assert domains.outside_points(p[None, :], r, domain) == expected


def _first_outside_reference(stack, r, member):
    """The scalar membership loop point_stack replaced: index of the first point outside."""
    for k, (z1, z2) in enumerate(stack.tolist()):
        if not member((z1, z2), r):
            return k
    return None


def _adversarial_rG_points(r, rng):
    """Points of C^2 crowding the boundary of r.G, as an (N, 2) stack (N = 225,000).

    s = (z1 + z2, z1 z2) for roots z = r rho e^(i theta) whose larger modulus is
    r on the boundary scaled by 1 +- 1e-7 and 1 +- 1e-13, or r (1 - eps) with
    nearly equal roots and eps down to 1e-9, plus interior samples and
    points of the bounding box of r.G.
    """
    m = 25_000
    theta = rng.uniform(0, 2 * np.pi, (2, m))
    small = rng.uniform(0, 1, m)
    on_circle = r * np.exp(1j * theta[0])
    inner = r * small * np.exp(1j * theta[1])
    parts = []
    for scale in (1 - 1e-7, 1 + 1e-7, 1 - 1e-13, 1 + 1e-13, 1.0):
        z1, z2 = scale * on_circle, scale * inner
        parts.append(np.column_stack([z1 + z2, z1 * z2]))
    # Near-double roots: both moduli r (1 - eps), phases apart by up to 1e-4.
    eps = 10.0 ** rng.uniform(-9, -3, m)
    rho = r * (1 - eps)
    z1 = rho * np.exp(1j * theta[0])
    z2 = rho * np.exp(1j * (theta[0] + rng.uniform(-1e-4, 1e-4, m)))
    parts.append(np.column_stack([z1 + z2, z1 * z2]))
    z2 = rho * np.exp(1j * theta[1])
    parts.append(np.column_stack([z1 + z2, z1 * z2]))
    parts.append(np.array(domains.sample_rG(m, r, 7)))  # settled by the screen
    box = rng.uniform(-1, 1, (m, 4)) * (2 * r, 2 * r, r * r, r * r)
    parts.append(box[:, 0::2] + 1j * box[:, 1::2])
    return np.concatenate(parts)


@pytest.mark.parametrize("r", [1e-4, 0.3, 0.5, 0.9, 1 - 1e-6])
def test_rG_screen_agrees_with_the_scalar_test(r):
    """point_stack's verdict on each point (screened, else in_rG) is in_rG's verdict.

    5 x 225,000 = 1,125,000 points in all.  Where the screen settles a point,
    in_rG must accept it; every other point point_stack hands to in_rG itself.
    """
    rng = np.random.default_rng(int(r * 1e6))
    pts = _adversarial_rG_points(r, rng)
    verdict = np.fromiter(
        (domains.in_rG((z1, z2), r) for z1, z2 in pts.tolist()), bool, len(pts)
    )
    screened = domains._rG_screen(pts, r)
    assert not np.any(screened & ~verdict)  # the screen never admits a point in_rG refuses
    assert 0.2 < verdict.mean() < 0.8
    assert screened[7 * 25_000 : 8 * 25_000].mean() > 0.99  # the sampled interior points
    # point_stack names the first point the scalar loop refuses: 20,000 inside
    # points with 40 outside points scattered among them, in blocks of about 400.
    order = rng.permutation(len(pts))
    inside, outside = order[verdict[order]][:20_000], order[~verdict[order]][:40]
    mixed = np.insert(inside, rng.integers(0, len(inside), len(outside)), outside)
    for block in np.array_split(mixed, 50):
        refused = np.flatnonzero(~verdict[block])
        if len(refused) == 0:
            assert np.array_equal(domains.point_stack(pts[block], r)[0], pts[block])
        else:
            z1, z2 = pts[block[refused[0]]].tolist()
            with pytest.raises(OutsideDomain, match=re.escape(f"point ({z1}, {z2}) is not")):
                domains.point_stack(pts[block], r)


def test_skew_bidisc_array_test_is_the_scalar_test():
    r = 0.3
    rng = np.random.default_rng(5)
    m = 50_000
    theta = rng.uniform(0, 2 * np.pi, (2, m))
    scale = rng.choice([1 - 1e-16, 1.0, 1 + 1e-16, 0.5, 1.5], (2, m))
    pts = np.column_stack([r * scale[0] * np.exp(1j * theta[0]), scale[1] * np.exp(1j * theta[1])])
    pts[:10] = [[r, 0.0], [0.0, 1.0], [-r, 0.5j], [0.1, -1.0], [1j * r, 0.0]] * 2
    verdict = [domains.in_skew_bidisc(p, r) for p in pts.tolist()]
    assert np.array_equal(domains._skew_bidisc_screen(pts, r), verdict)
    k = _first_outside_reference(pts, r, domains.in_skew_bidisc)
    z1, z2 = pts[k].tolist()
    with pytest.raises(OutsideDomain, match=re.escape(f"point ({z1}, {z2}) is not in rD x D")):
        domains.point_stack(pts, r, "rD x D")
