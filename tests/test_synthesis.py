import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from skewbidisc import domains, jsonio, linalg
from skewbidisc.cli import run
from skewbidisc.colligation import SubspaceSplit, build_R, random_colligation
from skewbidisc.errors import (
    GramianMismatch,
    InsufficientSamples,
    InvalidParams,
    NotInvertible,
    OutsideDomain,
    ShapeMismatch,
)
from skewbidisc.kernels import KernelContext, kernel_Z
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
    SynthesizedModel,
    _spec_precheck,
    eval_u_model,
    eval_v,
    eval_w,
    eval_x,
    kernel_checks,
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


def test_exponents_must_fit_in_int64():
    maps = (
        lambda j: PolyVectorMap(dim=1, terms=(((j, 0), np.array([1.0])),)),
        lambda j: ScalarPoly((((0, j), 1.0),)),
    )
    for make in maps:
        for huge in (2**63, 10**400):
            with pytest.raises(InvalidParams, match="int64"):
                make(huge)
        assert np.all(make(2**63 - 1).eval([[0.5, 0.5], [0.0, 0.0]]) == 0.0)


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


def _intertwining_reference(m, lam):
    """Defect of (1 - l1 U R^{-1}) v(lam) = (1 - r l2 U R^{-1}) v(sigma(lam)) at one point."""
    l1, l2 = complex(lam[0]), complex(lam[1])
    urinv = m.U @ m.R.inv_matrix
    v_here = eval_v(m.spec, lam)
    v_sig = eval_v(m.spec, domains.sigma(lam, m.spec.r))
    lhs = v_here - l1 * urinv @ v_here
    rhs = v_sig - m.spec.r * l2 * urinv @ v_sig
    return float(np.linalg.norm(lhs - rhs))


def test_eval_w_symmetry_and_base_point(lambda12_spec):
    model = _synth(lambda12_spec())
    np.testing.assert_allclose(
        eval_w(model, (0.0, 0.0)), eval_v(model.spec, (0.0, 0.0)), atol=1e-14
    )
    for lam in domains.sample_skew_bidisc(30, R, seed=21):
        w_here = eval_w(model, lam)
        w_sig = eval_w(model, domains.sigma(lam, R))
        assert np.linalg.norm(w_here - w_sig) < 1e-12
        assert _intertwining_reference(model, lam) < 1e-12


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


def _sample_points_reference(n, r):
    """The one-point-at-a-time loop that synthesis_sample_points replaced."""
    phi = 1.1673039782614187
    alphas = np.array([phi ** -(j + 1) for j in range(4)])
    pts = []
    for i in range(1, n + 1):
        t = (0.5 + i * alphas) % 1.0
        l1 = r * 0.8 * math.sqrt(t[0]) * np.exp(2j * np.pi * t[1])
        l2 = 0.8 * math.sqrt(t[2]) * np.exp(2j * np.pi * t[3])
        pts.append((complex(l1), complex(l2)))
    return pts


def test_synthesis_sample_points_reproduce_the_loop_bit_for_bit():
    def hexed(pts):
        return [tuple(x.hex() for z in p for x in (z.real, z.imag)) for p in pts]

    for n in (0, 1, 2, 52, 1000):
        for r in (1e-3, 0.5, 0.999):
            pts = synthesis_sample_points(n, r)
            assert all(type(p) is tuple and type(p[0]) is complex for p in pts)
            assert hexed(pts) == hexed(_sample_points_reference(n, r))
    with pytest.raises(InvalidParams, match="sample size"):
        synthesis_sample_points(-1, 0.5)


def test_synthesis_sample_points_stay_in_domain():
    for r in (0.25, 0.5, 0.9):
        pts = synthesis_sample_points(64, r)
        assert all(domains.in_skew_bidisc(p, r) for p in pts)
    assert synthesis_sample_points(16, 0.5) == synthesis_sample_points(16, 0.5)


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


def _bidisc_pair_reference(u1_eval, u2_eval, phi_eval, lam, mu):
    """Defect of the two-disc model identity at one pair of bidisc points.

    |1 - conj(phi(mu)) phi(lam)
    - (1 - conj(mu1) lam1) <u1(lam), u1(mu)> - (1 - conj(mu2) lam2) <u2(lam), u2(mu)>|.
    """
    l1, l2 = complex(lam[0]), complex(lam[1])
    m1, m2 = complex(mu[0]), complex(mu[1])
    lhs = 1.0 - complex(phi_eval(mu)).conjugate() * complex(phi_eval(lam))
    rhs = (1.0 - m1.conjugate() * l1) * np.vdot(u1_eval(mu), u1_eval(lam)) + (
        1.0 - m2.conjugate() * l2
    ) * np.vdot(u2_eval(mu), u2_eval(lam))
    return abs(lhs - rhs)


def _lambda12_maps():
    u1 = lambda lam: np.array([1.0 + 0.0j])
    u2 = lambda lam: np.array([lam[0]], dtype=complex)
    phi = lambda lam: lam[0] * lam[1]
    return u1, u2, phi


def test_bidisc_pair_reference_for_product_function():
    # u1 = 1, u2 = lam1 and phi = lam1 lam2 satisfy the two-variable model
    # identity exactly, so the residual is pure roundoff.
    u1, u2, phi = _lambda12_maps()
    pts = domains.sample_skew_bidisc(40, R, seed=10)
    pts = [(lam[0] / R, lam[1]) for lam in pts]  # stretch onto the full bidisc
    worst = max(
        _bidisc_pair_reference(u1, u2, phi, lam, mu) for lam, mu in zip(pts[:20], pts[20:])
    )
    assert worst < 1e-13


def test_bidisc_pair_reference_detects_wrong_function():
    u1, u2, _ = _lambda12_maps()
    wrong = lambda lam: lam[0]
    assert _bidisc_pair_reference(u1, u2, wrong, (0.3, 0.4), (0.1, -0.2)) > 1e-3


def _reference_precheck(spec, pts):
    sym = max(abs(spec.F.eval(domains.sigma(lam, spec.r)) - spec.F.eval(lam)) for lam in pts)
    model = max(
        _bidisc_pair_reference(spec.u1.eval, spec.u2.eval, spec.F.eval, lam, mu)
        for lam in pts
        for mu in pts
    )
    return sym, model


@pytest.mark.parametrize("seed", [30, 31])
@pytest.mark.parametrize("shift", [0.0, 0.1])
def test_model_families_match_model_residual_loop(seed, shift, tmp_path, capsys):
    c = random_colligation(SubspaceSplit(2, 3), R, seed=seed)
    c = replace(c, a=c.a + shift)  # a nonzero shift breaks the model identity
    pts = domains.sample_rG(12, R, seed=seed + 1)
    ref = max(model_residual(c, s, t) for s in pts for t in pts)
    model = GrModel(c.U, c.R, lambda s: eval_u(c, s), lambda s: eval_f(c, s))
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


# The stacked model maps against one-point formulas written out here.


def _poly_reference(terms, lam):
    l1, l2 = complex(lam[0]), complex(lam[1])
    return sum(((l1**j) * (l2**k) * np.asarray(c) for (j, k), c in terms), start=0j)


def _v_reference(spec, lam):
    lam_s = domains.sigma(lam, spec.r)
    u1, u2 = _poly_reference(spec.u1.terms, lam), _poly_reference(spec.u2.terms, lam_s)
    return np.concatenate([u1, u2]) / SQRT2


def _w_reference(m, lam):
    mat = np.eye(m.dim) - m.spec.r * complex(lam[1]) * m.U @ m.R.inv_matrix
    return np.linalg.solve(mat, _v_reference(m.spec, lam))


def _preimage_reference(s, r):
    rho1, rho2 = domains.quad_roots(s)
    return rho1, rho2 / r


def _u_model_reference(m, s):
    x = _w_reference(m, _preimage_reference(s, m.spec.r))
    return (2.0 * x - complex(s[0]) * (m.U @ (m.R.inv_matrix @ x))) / SQRT2


@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_stacked_model_maps_match_one_point_formulas(k, r, monkeypatch):
    spec = _power_spec(k, r)
    model = _synth(spec, 4 * spec.dim + 4)
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 5 * model.dim**2)  # blocks of 5 points
    lams = np.array(domains.sample_skew_bidisc(23, r, seed=80))
    ss = np.array(domains.sample_rG(23, r, seed=81))
    cases = [
        (spec.u1.eval, lambda p: _poly_reference(spec.u1.terms, p), lams),
        (spec.u2.eval, lambda p: _poly_reference(spec.u2.terms, p), lams),
        (spec.F.eval, lambda p: _poly_reference(spec.F.terms, p), lams),
        (lambda p: eval_v(spec, p), lambda p: _v_reference(spec, p), lams),
        (lambda p: eval_w(model, p), lambda p: _w_reference(model, p), lams),
        (lambda p: eval_x(model, p), lambda p: _w_reference(model, _preimage_reference(p, r)), ss),
        (lambda p: eval_u_model(model, p), lambda p: _u_model_reference(model, p), ss),
        (
            lambda p: model_f_eval(model, p),
            lambda p: _poly_reference(spec.F.terms, _preimage_reference(p, r)),
            ss,
        ),
    ]
    for stacked, one_point, pts in cases:
        ref = np.array([one_point(p) for p in pts.tolist()])
        for n in (0, 1, 23):
            got = stacked(pts[:n])
            assert got.shape == ref[:n].shape
            assert np.max(np.abs(got - ref[:n]), initial=0.0) <= DIFF_TOL
        single = stacked(tuple(pts[0].tolist()))
        if ref.ndim == 1:
            assert type(single) is complex
        else:
            assert isinstance(single, np.ndarray) and single.shape == ref[0].shape
        assert np.max(np.abs(single - ref[0])) <= DIFF_TOL


def test_eval_w_names_the_point_where_the_resolvent_is_singular(lambda12_spec):
    # U R^{-1} = 4: the resolvent 1 - r l2 U R^{-1} vanishes where r l2 = 1/4.
    r_op = build_R(SubspaceSplit(1, 1), R)
    model = SynthesizedModel(U=4.0 * r_op.matrix, R=r_op, spec=lambda12_spec(), residual_report={})
    bad = (0.2 + 0j, 0.5 + 0j)
    with pytest.raises(NotInvertible, match=re.escape(f"at {bad}")):
        eval_w(model, [(0.1, 0.2), bad, (0.1, 0.5)])
    with pytest.raises(NotInvertible, match=re.escape(f"at {bad}")):
        eval_w(model, bad)


def test_model_map_calls_do_not_grow_with_the_sample_count(monkeypatch):
    calls = []
    poly_eval = PolyVectorMap.eval
    monkeypatch.setattr(
        PolyVectorMap, "eval", lambda self, lam: calls.append(1) or poly_eval(self, lam)
    )
    spec = _power_spec(3)
    counts = []
    for n in (4 * spec.dim + 4, 200):
        calls.clear()
        model = synthesize(spec, synthesis_sample_points(n, spec.r))
        kernel_checks(model, domains.sample_skew_bidisc(n, spec.r, 1))
        gr = wrap_as_GrModel(model)
        seen = []
        counted = replace(
            gr,
            u_eval=lambda s: seen.append("u") or gr.u_eval(s),
            f_eval=lambda s: seen.append("f") or gr.f_eval(s),
        )
        realization_from_model(counted, domains.sample_rG(n, spec.r, 2))
        assert sorted(seen) == ["f", "u"]
        model_f_eval(model, domains.sample_rG(n, spec.r, 3))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_synthesized_model_is_a_resolvent_of_its_own_size():
    spec = _power_spec(3)
    model = synthesize(spec, synthesis_sample_points(4 * spec.dim + 4, spec.r))
    assert model.dim == model.U.shape[0] == spec.dim and model.r == spec.r
    assert not model.urinv.flags.writeable
    assert model.urinv.tobytes() == (model.U @ model.R.inv_matrix).tobytes()
    gr = wrap_as_GrModel(model)
    assert gr.dim == model.dim and gr.urinv.tobytes() == model.urinv.tobytes()
    with pytest.raises(ShapeMismatch, match="U has shape"):
        replace(model, R=build_R(SubspaceSplit(1, 1), spec.r))
