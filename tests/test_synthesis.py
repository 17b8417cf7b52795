import json
from dataclasses import replace

import numpy as np
import pytest

from skewbidisc import domains, jsonio, linalg
from skewbidisc.cli import run
from skewbidisc.colligation import SubspaceSplit, random_colligation
from skewbidisc.errors import (
    GramianMismatch,
    InsufficientSamples,
    InvalidParams,
    OutsideDomain,
    ShapeMismatch,
)
from skewbidisc.kernels import KernelContext, bidisc_model_residual, kernel_Z
from skewbidisc.realization import (
    GrModel,
    eval_f,
    eval_u,
    model_families,
    model_residual,
    realization_from_model,
)
from skewbidisc.synthesis import (
    VALIDATION_GRID_SIZE,
    VALIDATION_SEED,
    BidiscModelSpec,
    PolyVectorMap,
    ScalarPoly,
    _spec_precheck,
    eval_u_model,
    eval_v,
    eval_w,
    eval_x,
    intertwining_residual,
    model_f_eval,
    synthesis_sample_points,
    synthesize,
    wrap_as_GrModel,
)

R = 0.5
SQRT2 = np.sqrt(2.0)


def _synth(spec, n=8):
    return synthesize(spec, synthesis_sample_points(n, spec.r))


def test_poly_vector_map_eval():
    m = PolyVectorMap(
        dim=2,
        terms=(((0, 0), np.array([1.0, 0.0])), ((2, 1), np.array([0.0, 3.0]))),
    )
    out = m.eval((0.5, 2.0))
    np.testing.assert_allclose(out, [1.0, 3.0 * 0.25 * 2.0])


def test_poly_vector_map_validation():
    with pytest.raises(InvalidParams):
        PolyVectorMap(dim=0, terms=())
    with pytest.raises(InvalidParams):
        PolyVectorMap(dim=1, terms=(((-1, 0), np.array([1.0])),))
    with pytest.raises(ShapeMismatch):
        PolyVectorMap(dim=2, terms=(((0, 0), np.array([1.0])),))


def test_scalar_poly_eval():
    p = ScalarPoly((((1, 1), 1.0 + 0j), ((0, 0), -2.0 + 0j)))
    assert p.eval((0.3, 0.5)) == pytest.approx(0.15 - 2.0)
    with pytest.raises(InvalidParams):
        ScalarPoly((((0, -2), 1.0),))


def test_spec_dimension_checks(lambda12_spec):
    spec = lambda12_spec()
    assert spec.dim == 2
    with pytest.raises(ShapeMismatch):
        BidiscModelSpec(r=R, d1=2, d2=1, u1=spec.u1, u2=spec.u2, F=spec.F)
    with pytest.raises(InvalidParams):
        BidiscModelSpec(r=R, d1=1, d2=0, u1=spec.u1, u2=spec.u2, F=spec.F)


def test_eval_v_product_spec(lambda12_spec):
    spec = lambda12_spec()
    lam = (0.2 + 0.1j, -0.4j)
    # v = (1/sqrt2) [u1(lam); u2(sigma lam)] and u2 picks out the first slot
    # of sigma(lam) = (r lam2, lam1 / r).
    expected = np.array([1.0, R * lam[1]]) / SQRT2
    np.testing.assert_allclose(eval_v(spec, lam), expected, atol=1e-15)
    np.testing.assert_allclose(eval_v(spec, (0.0, 0.0)), [1.0 / SQRT2, 0.0], atol=1e-15)


def test_eval_v_outside_domain(lambda12_spec):
    spec = lambda12_spec()
    with pytest.raises(OutsideDomain):
        eval_v(spec, (0.9, 0.1))  # first slot must stay inside rD


def test_synthesize_product_function(lambda12_spec):
    model = _synth(lambda12_spec())
    rep = model.residual_report
    assert rep["gramian_residual"] < 1e-10
    assert rep["isometry_residual"] < 1e-10
    assert rep["u_unitarity"] < 1e-12
    assert rep["rank"] == 1
    assert model.U.shape == (2, 2)


def test_synthesize_rejects_asymmetric_function(lambda12_spec):
    spec = lambda12_spec()
    bad = BidiscModelSpec(
        r=spec.r,
        d1=1,
        d2=1,
        u1=spec.u1,
        u2=spec.u2,
        F=ScalarPoly((((1, 0), 1.0 + 0j),)),  # F = lam1 is not sigma-symmetric
    )
    with pytest.raises(GramianMismatch) as exc_info:
        _synth(bad)
    assert "sigma" in str(exc_info.value)


def test_synthesize_needs_enough_points(lambda12_spec):
    spec = lambda12_spec()
    with pytest.raises(InsufficientSamples):
        synthesize(spec, synthesis_sample_points(2, spec.r))


def test_synthesize_rejects_points_off_domain(lambda12_spec):
    spec = lambda12_spec()
    pts = synthesis_sample_points(8, spec.r)
    pts[3] = (0.75, 0.1)  # outside rD x D for r = 1/2
    with pytest.raises(OutsideDomain):
        synthesize(spec, pts)


def _constant_spec(c):
    zero1 = PolyVectorMap(dim=1, terms=())
    return BidiscModelSpec(
        r=R, d1=1, d2=1, u1=zero1, u2=zero1, F=ScalarPoly((((0, 0), c),))
    )


def test_synthesize_unimodular_constant():
    c = np.exp(0.3j)
    model = _synth(_constant_spec(c))
    np.testing.assert_allclose(model.U, np.eye(2), atol=1e-14)
    assert model.residual_report["rank"] == 0
    for s in domains.sample_rG(10, R, seed=20):
        assert model_f_eval(model, s) == pytest.approx(c)


def test_synthesize_rejects_small_constant():
    # |F| = 0.5 < 1 with zero model maps cannot satisfy the identity.
    with pytest.raises(GramianMismatch) as exc_info:
        _synth(_constant_spec(0.5 + 0j))
    assert "model identity" in str(exc_info.value)


def test_eval_w_symmetry_and_base_point(lambda12_spec):
    model = _synth(lambda12_spec())
    np.testing.assert_allclose(
        eval_w(model, (0.0, 0.0)), eval_v(model.spec, (0.0, 0.0)), atol=1e-14
    )
    for lam in domains.sample_skew_bidisc(30, R, seed=21):
        w_here = eval_w(model, lam)
        w_sig = eval_w(model, domains.sigma(lam, R))
        assert np.linalg.norm(w_here - w_sig) < 1e-12
        assert intertwining_residual(model, lam) < 1e-12


def test_eval_x_root_assignment_invariance(lambda12_spec):
    model = _synth(lambda12_spec())
    for s in domains.sample_rG(20, R, seed=22):
        rho1, rho2 = domains.quad_roots(s)
        x = eval_x(model, s)
        np.testing.assert_allclose(x, eval_w(model, (rho1, rho2 / R)), atol=1e-13)
        np.testing.assert_allclose(x, eval_w(model, (rho2, rho1 / R)), atol=1e-12)


def test_eval_u_model_at_origin(lambda12_spec):
    model = _synth(lambda12_spec())
    u0 = eval_u_model(model, (0.0, 0.0))
    np.testing.assert_allclose(u0, SQRT2 * eval_v(model.spec, (0.0, 0.0)), atol=1e-14)


def test_model_f_eval_is_rescaled_product(lambda12_spec):
    model = _synth(lambda12_spec())
    for s in domains.sample_rG(50, R, seed=23):
        assert abs(model_f_eval(model, s) - s[1] / R) < 1e-13


def test_wrapped_model_supports_extraction(lambda12_spec):
    model = _synth(lambda12_spec())
    gr = wrap_as_GrModel(model)
    pts = domains.sample_rG(4 * (model.dim + 1), R, seed=24)
    extracted = realization_from_model(gr, pts)
    for s in domains.sample_rG(50, R, seed=25):
        assert abs(eval_f(extracted, s) - s[1] / R) < 1e-9


def test_synthesis_sample_points_stay_in_domain():
    for r in (0.25, 0.5, 0.9):
        pts = synthesis_sample_points(64, r)
        assert all(domains.in_skew_bidisc(p, r, margin=0.0) for p in pts)
    assert synthesis_sample_points(16, 0.5) == synthesis_sample_points(16, 0.5)
    with pytest.raises(InvalidParams):
        synthesis_sample_points(4, 0.5, scale=1.5)


# The Gram-form checks against the per-pair reference loops they replace.
# Entry (i, j) of Gram(A) - Gram(B) is one pair's defect, so the largest
# entry and the worst pair must agree to roundoff, on passing and on
# failing inputs alike.

DIFF_TOL = 1e-13


def _power_spec(k, r=R):
    """d1 = d2 = k, u1 = [(l1 l2)^j], u2 = [l1 (l1 l2)^j] for j < k, F = (l1 l2)^k."""
    eye = np.eye(k)
    return BidiscModelSpec(
        r=r,
        d1=k,
        d2=k,
        u1=PolyVectorMap(dim=k, terms=tuple(((j, j), eye[j]) for j in range(k))),
        u2=PolyVectorMap(dim=k, terms=tuple(((j + 1, j), eye[j]) for j in range(k))),
        F=ScalarPoly((((k, k), 1.0 + 0j),)),
    )


def _run_report(capsys, argv):
    code = run(argv)
    return code, json.loads(capsys.readouterr().out)


def _check(report, name):
    return next(res for (n, res, _) in report["checks"] if n == name)


def _precheck_points(spec):
    return synthesis_sample_points(4 * spec.dim + 4, spec.r) + domains.sample_skew_bidisc(
        VALIDATION_GRID_SIZE, spec.r, VALIDATION_SEED
    )


def _reference_precheck(spec, pts):
    sym = max(abs(spec.F.eval(domains.sigma(lam, spec.r)) - spec.F.eval(lam)) for lam in pts)
    model = max(
        bidisc_model_residual(spec.u1.eval, spec.u2.eval, spec.F.eval, lam, mu)
        for lam in pts
        for mu in pts
    )
    return sym, model


@pytest.mark.parametrize("seed", [30, 31])
@pytest.mark.parametrize("shift", [0.0, 0.1])
def test_model_families_match_model_residual_loop(seed, shift, tmp_path, capsys):
    c = random_colligation(SubspaceSplit(2, 3), R, seed=seed)
    c.a += shift  # a nonzero shift breaks the model identity
    pts = domains.sample_rG(12, R, seed=seed + 1)
    ref = max(model_residual(c, s, t) for s in pts for t in pts)
    model = GrModel(c.dim, c.U, c.R, lambda s: eval_u(c, s), lambda s: eval_f(c, s))
    assert abs(linalg.gram_gap(*model_families(model, pts)) - ref) <= DIFF_TOL
    if shift:
        assert ref > 1e-3
        with pytest.raises(GramianMismatch) as exc_info:
            realization_from_model(model, pts)
        assert exc_info.value.check == "gramian"
        assert abs(exc_info.value.residual - ref) <= DIFF_TOL
    # The certify command's pair grid: the first min(samples, 20) points.
    path = tmp_path / "c.json"
    jsonio.dump_json(jsonio.colligation_to_json(c), path)
    code, report = _run_report(
        capsys, ["certify", "--input", str(path), "--samples", "20", "--seed", str(seed)]
    )
    grid = domains.sample_rG(20, R, seed)
    ref = max(model_residual(c, s, t) for s in grid for t in grid)
    assert abs(_check(report, "pair_model_residual") - ref) <= DIFF_TOL
    assert (code == 1) == (ref > 1e-9) == bool(shift)


@pytest.mark.parametrize("k", [1, 3])
def test_spec_precheck_matches_bidisc_pair_loop(k):
    spec = _power_spec(k)
    pts = _precheck_points(spec)
    sym, model = _spec_precheck(spec, pts)
    ref_sym, ref_model = _reference_precheck(spec, pts)
    assert sym == ref_sym
    assert abs(model - ref_model) <= DIFF_TOL
    assert model < 1e-10


@pytest.mark.parametrize(
    "spec, expected",
    [
        (_constant_spec(0.5 + 0j), "bidisc_model"),
        (replace(_power_spec(2), F=ScalarPoly((((1, 0), 1.0 + 0j),))), "sigma_symmetry"),
    ],
)
def test_broken_spec_fails_both_ways_with_the_same_check(spec, expected, tmp_path, capsys):
    pts = _precheck_points(spec)
    ref_sym, ref_model = _reference_precheck(spec, pts)
    ref_name, ref_res = (
        ("sigma_symmetry", ref_sym) if ref_sym > 1e-10 else ("bidisc_model", ref_model)
    )
    assert ref_name == expected and ref_res > 1e-3
    with pytest.raises(GramianMismatch) as exc_info:
        synthesize(spec, synthesis_sample_points(4 * spec.dim + 4, spec.r))
    assert exc_info.value.check == ref_name
    assert abs(exc_info.value.residual - ref_res) <= DIFF_TOL
    path = tmp_path / "spec.json"
    jsonio.dump_json(jsonio.model_spec_to_json(spec), path)
    code, report = _run_report(capsys, ["synthesize", "--input", str(path)])
    assert code == 1
    assert report["checks"][0][0] == ref_name


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("seed", [0, 7])
def test_kernel_z_identity_matches_kernel_z_loop(k, seed, tmp_path, capsys):
    spec = _power_spec(k)
    path = tmp_path / "spec.json"
    jsonio.dump_json(jsonio.model_spec_to_json(spec), path)
    code, report = _run_report(capsys, ["synthesize", "--input", str(path), "--seed", str(seed)])
    assert code == 0
    model = synthesize(spec, synthesis_sample_points(4 * spec.dim + 4, spec.r))
    ctx = KernelContext(model.U, model.R)
    grid = domains.sample_skew_bidisc(8, spec.r, seed + 1)
    ref = max(
        abs(
            1.0 - np.conj(spec.F.eval(mu)) * spec.F.eval(lam)
            - np.vdot(eval_w(model, mu), kernel_Z(ctx, lam, mu) @ eval_w(model, lam))
        )
        for lam in grid
        for mu in grid
    )
    assert abs(_check(report, "kernel_z_identity") - ref) <= DIFF_TOL
