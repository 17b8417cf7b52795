import numpy as np
import pytest

from skewbidisc import catalog, domains
from skewbidisc.catalog import (
    CATALOG_NAMES,
    RankOneParams,
    blend_params,
    catalog_campaign,
    magic_params,
    named_params,
    random_params,
    rank_one_build,
    upsilon_params,
    validate_params,
)
from skewbidisc.cli import run
from skewbidisc.colligation import Colligation, SubspaceSplit, validate_colligation
from skewbidisc.errors import ConfigError, DegenerateDenominator, InvalidParams, OutsideDomain
from skewbidisc.realization import eval_f

R = 0.5
W1 = np.exp(0.4j)
W2 = np.exp(-1.1j)


def test_validate_params_accepts_named_entries():
    validate_params(upsilon_params(R, W1))
    validate_params(magic_params(R, W1))
    validate_params(blend_params(R, W1, W2))
    validate_params(random_params(R, seed=3))


def test_validate_params_rejections():
    good = random_params(R, seed=4)
    with pytest.raises(InvalidParams, match="omega1"):
        validate_params(
            RankOneParams(R, 1.01 * good.omega1, good.omega2, good.gamma, good.beta, good.u, good.v)
        )
    with pytest.raises(InvalidParams, match="gamma"):
        validate_params(
            RankOneParams(R, good.omega1, good.omega2, 1.02 * good.gamma, good.beta, good.u, good.v)
        )
    with pytest.raises(InvalidParams, match="u, gamma"):
        validate_params(
            RankOneParams(R, good.omega1, good.omega2, good.gamma, good.beta, good.gamma, good.v)
        )
    with pytest.raises(InvalidParams, match="v, beta"):
        validate_params(
            RankOneParams(R, good.omega1, good.omega2, good.gamma, good.beta, good.u, good.beta)
        )


@pytest.mark.parametrize("omega1", [complex("nan"), complex(1.0, float("nan"))])
def test_a_nan_omega_is_refused_as_a_parameter(omega1):
    good = random_params(R, seed=4)
    p = RankOneParams(R, omega1, good.omega2, good.gamma, good.beta, good.u, good.v)
    with pytest.raises(InvalidParams, match="omega1 has modulus nan"):
        validate_params(p)
    with pytest.raises(InvalidParams, match="omega1 has modulus nan"):
        rank_one_build(p)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_built_colligations_are_unitary(seed):
    for name in CATALOG_NAMES:
        colligation, _ = rank_one_build(named_params(name, R, seed))
        report = validate_colligation(colligation, tol=1e-12)
        assert report.passed, f"{name} seed {seed}: {report.checks}"


def test_upsilon_closed_form_is_scaled_fraction():
    _, closed = rank_one_build(upsilon_params(R, W1))
    for s in domains.sample_rG(200, R, seed=5):
        assert abs(closed(s) - domains.upsilon(W1, R, s)) < 1e-13


def test_magic_closed_form_is_plain_fraction():
    _, closed = rank_one_build(magic_params(R, W1))
    for s in domains.sample_rG(200, R, seed=6):
        assert abs(closed(s) - domains.magic_phi(W1, s)) < 1e-13


def test_blend_closed_form_formula():
    _, closed = rank_one_build(blend_params(R, W1, W2))
    rt2 = np.sqrt(2.0)
    for s in domains.sample_rG(100, R, seed=7):
        p1 = domains.mobius_phi(W1, s)
        p2 = domains.mobius_phi(W2 / R, s)
        expected = p1 * (R - rt2 * p2) / (R * rt2 - p2)
        assert abs(closed(s) - expected) < 1e-13


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_crosscheck_closes_the_loop(name):
    report = catalog_campaign(named_params(name, R, seed=8), n=150, seed=9)
    assert _residuals(report)["crosscheck_gap"] < 1e-11


def test_campaign_reports_schur_bound_and_denominator():
    p = random_params(0.25, seed=10)
    report = catalog_campaign(p, n=300, seed=11)
    assert report.passed
    assert [(ch.name, ch.threshold) for ch in report.checks] == [
        ("crosscheck_gap", 1e-10), ("schur_bound", 1e-12), ("denominator_floor_gap", 0.0)
    ]
    residual = _residuals(report)
    assert residual["crosscheck_gap"] < 1e-11
    assert residual["schur_bound"] <= 1e-12
    assert residual["denominator_floor_gap"] == 0.0
    # The denominator floor on the campaign's own points.
    pts = np.array(domains.sample_rG(300, p.r, 11))
    assert catalog._closed_form_and_denominator(p, pts)[1].min() > 1e-3


def test_campaign_zero_samples():
    p = upsilon_params(R, W1)
    report = catalog_campaign(p, n=0, seed=0)
    assert report.passed and [ch.residual for ch in report.checks] == [0.0, 0.0, 0.0]
    assert catalog._closed_form_and_denominator(p, np.empty((0, 2), dtype=complex))[1].size == 0


def test_campaign_tol_sets_the_crosscheck_threshold():
    report = catalog_campaign(upsilon_params(R, W1), n=50, seed=1, tol=1e-30)
    assert [ch.threshold for ch in report.checks] == [1e-30, 1e-12, 0.0]
    assert report.passed == (_residuals(report)["crosscheck_gap"] <= 1e-30)


def _residuals(report):
    return {ch.name: ch.residual for ch in report.checks}


def test_hand_built_defective_colligation_fails_validation():
    p = upsilon_params(R, W1)
    bad = Colligation(
        r=R,
        split=SubspaceSplit(1, 1),
        a=0.0,
        beta=p.beta,
        gamma=p.gamma,
        D=np.outer(1.01 * p.u, p.v.conj()),
        U=np.diag([p.omega1, p.omega2]),
    )
    report = validate_colligation(bad)
    assert not report.passed
    failing = {chk.name for chk in report.checks if not chk.passed}
    assert "d_contraction" in failing


def test_named_params_dispatch():
    p = named_params("upsilon", R, seed=12)
    np.testing.assert_array_equal(p.gamma, [0.0, 1.0])
    np.testing.assert_array_equal(p.u, [1.0, 0.0])
    assert abs(abs(p.omega1) - 1.0) < 1e-14
    with pytest.raises(ConfigError):
        named_params("nonexistent", R, seed=0)


def _closed_form_point(p, s):
    """The closed form of rank_one_build at one point, in Python complex arithmetic."""
    s1, s2 = complex(s[0]), complex(s[1])

    def phi(z):
        return (s2 * z - 0.5 * s1) / (1.0 - 0.5 * s1 * z)

    p1, p2 = phi(p.omega1), phi(p.omega2 / p.r) / p.r
    (u1, u2), (cv1, cv2) = p.u.tolist(), p.v.conj().tolist()
    den = 1.0 - u1 * cv1 * p1 - u2 * cv2 * p2
    n_mat = np.array(
        [
            [p1 * (1.0 - u2 * cv2 * p2), u1 * cv2 * p1 * p2],
            [u2 * cv1 * p1 * p2, p2 * (1.0 - u1 * cv1 * p1)],
        ]
    )
    return complex(np.vdot(p.beta, n_mat @ p.gamma)) / den


@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
@pytest.mark.parametrize("n", [0, 1, 300])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_stacked_closed_form_matches_one_point_formula(name, r, n):
    p = named_params(name, r, seed=21)
    _, closed = rank_one_build(p)
    pts = domains.sample_rG(n, r, seed=22)
    val = closed(np.array(pts, dtype=complex).reshape(-1, 2))
    assert val.shape == (n,)
    ref = np.array([_closed_form_point(p, s) for s in pts], dtype=complex)
    assert np.max(np.abs(val - ref), initial=0.0) <= 1e-13
    for s in pts[:2]:
        one = closed(s)
        assert type(one) is np.complex128
        assert abs(one - _closed_form_point(p, s)) <= 1e-13


def test_closed_form_refuses_points_outside_rG():
    p = named_params("rank-one", 0.5, 3)
    colligation, closed = rank_one_build(p)
    with pytest.raises(OutsideDomain):
        eval_f(colligation, (0.9, 0.3))
    with pytest.raises(OutsideDomain, match=r"\(\(0\.9\+0j\), \(0\.3\+0j\)\)"):
        closed((0.9, 0.3))
    stack = np.vstack([domains.sample_rG(4, 0.5, seed=23), [(0.9, 0.3)]])
    with pytest.raises(OutsideDomain, match=r"\(\(0\.9\+0j\), \(0\.3\+0j\)\)"):
        closed(stack)


@pytest.mark.parametrize("k", [0, 2, 5])
def test_zero_determinant_names_its_point(k):
    # For the magic entry with omega = 1, det(s) = 1 - phi_{1/r}(s) / r vanishes at (0, r^2).
    stack = np.array(domains.sample_rG(6, R, seed=24), dtype=complex)
    stack[k] = (0.0, R * R)
    with pytest.raises(DegenerateDenominator, match=rf"point {k} \(0j, \(0\.25\+0j\)\)"):
        catalog._closed_form_and_denominator(magic_params(R, 1.0), stack)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_mobius_phi_calls_do_not_grow_with_the_sample_count(name, monkeypatch, capsys):
    calls = []

    def counted(z, s):
        calls.append(z)
        return domains.mobius_phi(z, s)

    monkeypatch.setattr(catalog, "mobius_phi", counted)
    counts = []
    for samples in (10, 400):
        calls.clear()
        assert run(["catalog", "--name", name, "--samples", str(samples)]) == 0
        counts.append(len(calls))
    capsys.readouterr()
    assert counts[0] == counts[1] > 0
