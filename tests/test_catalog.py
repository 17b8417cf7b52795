import numpy as np
import pytest

from skewbidisc import domains
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
from skewbidisc.colligation import Colligation, SubspaceSplit, validate_colligation
from skewbidisc.errors import ConfigError, InvalidParams

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
    gap = catalog_campaign(named_params(name, R, seed=8), name, n=150, seed=9).max_gap
    assert gap < 1e-11


def test_campaign_reports_schur_bound_and_denominator():
    report = catalog_campaign(random_params(0.25, seed=10), "rank-one", n=300, seed=11)
    assert report.max_gap < 1e-11
    assert report.max_abs_f <= 1.0 + 1e-12
    assert report.min_denominator > 1e-3
    assert report.n == 300


def test_campaign_zero_samples():
    report = catalog_campaign(upsilon_params(R, W1), "upsilon", n=0, seed=0)
    assert report.max_gap == 0.0
    assert report.min_denominator == float("inf")


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
