import numpy as np
import pytest

from skewbidisc import domains
from skewbidisc.catalog import magic_params, rank_one_build, upsilon_params
from skewbidisc.colligation import (
    Colligation,
    SubspaceSplit,
    random_colligation,
    validate_colligation,
)
from skewbidisc.errors import (
    GramianMismatch,
    InsufficientSamples,
    InvalidParams,
    OutsideDomain,
)
from skewbidisc.realization import (
    GrModel,
    RealizedFunction,
    eval_f,
    eval_u,
    model_residual,
    realization_from_model,
    scaled_model_residual,
    schur_certify,
)

R_DEFAULT = 0.5
OMEGA = np.exp(0.9j)


def test_eval_u_constant_for_scaled_fraction_entry():
    # gamma = e2 and D = e1 (x) e1 decouple, so u(s) = e2 identically.
    colligation, _ = rank_one_build(upsilon_params(R_DEFAULT, OMEGA))
    for s in domains.sample_rG(20, R_DEFAULT, seed=1):
        np.testing.assert_allclose(eval_u(colligation, s), [0.0, 1.0], atol=1e-14)


def test_eval_f_matches_scaled_fraction():
    colligation, _ = rank_one_build(upsilon_params(R_DEFAULT, OMEGA))
    for s in domains.sample_rG(100, R_DEFAULT, seed=2):
        expected = domains.upsilon(OMEGA, R_DEFAULT, s)
        assert abs(eval_f(colligation, s) - expected) < 1e-13


def test_eval_f_matches_plain_fraction():
    colligation, _ = rank_one_build(magic_params(R_DEFAULT, OMEGA))
    for s in domains.sample_rG(100, R_DEFAULT, seed=3):
        expected = domains.magic_phi(OMEGA, s)
        assert abs(eval_f(colligation, s) - expected) < 1e-13


@pytest.mark.parametrize("split", [SubspaceSplit(1, 1), SubspaceSplit(2, 3)])
def test_model_residual_vanishes_for_valid_colligations(split):
    c = random_colligation(split, R_DEFAULT, seed=4)
    pts = domains.sample_rG(40, R_DEFAULT, seed=5)
    worst = max(model_residual(c, s, t) for s, t in zip(pts[:20], pts[20:]))
    assert worst < 1e-12


def test_schur_certify_vacuous_and_valid():
    c = random_colligation(SubspaceSplit(1, 2), R_DEFAULT, seed=6)
    empty = schur_certify(c, 0, seed=0)
    assert empty.passed and empty.max_abs_f == 0.0
    report = schur_certify(c, 300, seed=7)
    assert report.passed
    assert report.max_abs_f <= 1.0 + 1e-12
    assert report.max_diag_residual < 1e-12


def test_schur_certify_fails_for_inflated_constant():
    c = Colligation(
        r=R_DEFAULT,
        split=SubspaceSplit(1, 1),
        a=1.2,
        beta=np.zeros(2, dtype=complex),
        gamma=np.zeros(2, dtype=complex),
        D=np.zeros((2, 2), dtype=complex),
        U=np.eye(2, dtype=complex),
    )
    report = schur_certify(c, 10, seed=8)
    assert not report.passed
    assert report.max_abs_f == pytest.approx(1.2)


def _model_from(c: Colligation) -> GrModel:
    return GrModel(
        dim=c.dim,
        U=c.U,
        R=c.R,
        u_eval=lambda s: eval_u(c, s),
        f_eval=lambda s: eval_f(c, s),
    )


def test_realization_roundtrip():
    c = random_colligation(SubspaceSplit(1, 2), R_DEFAULT, seed=9)
    pts = domains.sample_rG(4 * (c.dim + 1), R_DEFAULT, seed=10)
    extracted = realization_from_model(_model_from(c), pts)
    assert validate_colligation(extracted, tol=1e-8).passed
    for s in domains.sample_rG(100, R_DEFAULT, seed=11):
        assert abs(eval_f(extracted, s) - eval_f(c, s)) < 1e-8


def test_realization_rejects_broken_model():
    c = random_colligation(SubspaceSplit(1, 1), R_DEFAULT, seed=12)
    broken = GrModel(
        dim=c.dim,
        U=c.U,
        R=c.R,
        u_eval=lambda s: eval_u(c, s),
        f_eval=lambda s: 0.9 * eval_f(c, s),
    )
    pts = domains.sample_rG(8, R_DEFAULT, seed=13)
    with pytest.raises(GramianMismatch) as exc_info:
        realization_from_model(broken, pts)
    assert exc_info.value.residual is not None
    assert exc_info.value.residual > 1e-3


@pytest.mark.parametrize("n_pts", [1, 3])
def test_realization_refuses_unsaturated_span(n_pts):
    # At dimension 5 a few points leave the completion free on directions
    # the model reaches elsewhere; the extracted colligation would validate
    # yet realize a different function.
    c = random_colligation(SubspaceSplit(2, 3), R_DEFAULT, seed=18)
    pts = domains.sample_rG(n_pts, R_DEFAULT, seed=19)
    with pytest.raises(InsufficientSamples):
        realization_from_model(_model_from(c), pts)


def test_realization_accepts_a_full_span_of_dim_plus_one_points():
    c = random_colligation(SubspaceSplit(1, 1), R_DEFAULT, seed=18)
    extracted = realization_from_model(_model_from(c), domains.sample_rG(3, R_DEFAULT, seed=19))
    for s in domains.sample_rG(50, R_DEFAULT, seed=20):
        assert abs(eval_f(extracted, s) - eval_f(c, s)) < 1e-12


def test_realization_requires_points():
    c = random_colligation(SubspaceSplit(1, 1), R_DEFAULT, seed=14)
    with pytest.raises(InvalidParams):
        realization_from_model(_model_from(c), [])


def test_scaled_model_identity_for_transported_fraction():
    # The one-variable scalar model (T = [omega], v = 1) realizes the plain
    # fraction on G; composing with the scaling map must satisfy the scaled
    # identity with X = T / r and the extra 1/r^2 weight.
    r = 0.5
    T = np.array([[OMEGA]])
    v_eval = lambda s: np.array([1.0 + 0.0j])
    f_eval = lambda s: domains.upsilon(OMEGA, r, s)
    pts = domains.sample_rG(20, r, seed=15)
    worst = max(
        scaled_model_residual(T, v_eval, f_eval, s, t, r)
        for s in pts[:10]
        for t in pts[10:]
    )
    assert worst < 1e-12


def test_scaled_model_identity_at_origin():
    r = 0.5
    T = np.array([[OMEGA]])
    v_eval = lambda s: np.array([1.0 + 0.0j])
    f_eval = lambda s: domains.upsilon(OMEGA, r, s)
    res = scaled_model_residual(T, v_eval, f_eval, (0.0, 0.0), (0.0, 0.0), r)
    assert res < 1e-14


def test_scaled_model_outside_domain():
    r = 0.5
    T = np.array([[OMEGA]])
    v_eval = lambda s: np.array([1.0 + 0.0j])
    f_eval = lambda s: 0.0 + 0.0j
    with pytest.raises(OutsideDomain):
        scaled_model_residual(T, v_eval, f_eval, (2 * r, r * r), (0.0, 0.0), r)


def test_realized_function_wrapper():
    c = random_colligation(SubspaceSplit(2, 1), R_DEFAULT, seed=16)
    fn = RealizedFunction(c)
    assert fn.r == R_DEFAULT
    s = domains.sample_rG(1, R_DEFAULT, seed=17)[0]
    assert fn(s) == eval_f(c, s)


def test_realized_function_rejects_defective():
    bad = Colligation(
        r=R_DEFAULT,
        split=SubspaceSplit(1, 1),
        a=0.3,
        beta=np.zeros(2, dtype=complex),
        gamma=np.zeros(2, dtype=complex),
        D=np.eye(2, dtype=complex) * 1.5,
        U=np.eye(2, dtype=complex),
    )
    with pytest.raises(InvalidParams):
        RealizedFunction(bad)
