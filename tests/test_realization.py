import numpy as np
import pytest

from skewbidisc import domains, linalg
from skewbidisc.catalog import magic_params, rank_one_build, upsilon_params
from skewbidisc.colligation import (
    Colligation,
    SubspaceSplit,
    random_colligation,
    s_UR,
    validate_colligation,
)
from skewbidisc.errors import (
    GramianMismatch,
    InsufficientSamples,
    InvalidParams,
    OutsideDomain,
    ShapeMismatch,
)
from skewbidisc.realization import (
    GrModel,
    RealizedFunction,
    eval_f,
    eval_u,
    evaluate,
    model_residual,
    realization_from_model,
    scaled_model_residual,
    schur_certify,
)

R_DEFAULT = 0.5
OMEGA = np.exp(0.9j)
DIFF_TOL = 1e-13


# The one-point formulas written out, as before stacking; the stacked path
# is compared against them.
def _frac_reference(c, s):
    s1, s2 = complex(s[0]), complex(s[1])
    num = 2.0 * s2 * c.R.inv_matrix @ c.U - s1 * np.eye(c.dim)
    return num @ linalg.inverse(2.0 * c.R.matrix - s1 * c.U)


def _u_reference(c, s):
    return np.linalg.solve(np.eye(c.dim) - c.D @ _frac_reference(c, s), c.gamma)


def _f_reference(c, s):
    return c.a + complex(np.vdot(c.beta, _frac_reference(c, s) @ _u_reference(c, s)))


def _model_residual_reference(c, s, t):
    frac_s, frac_t = _frac_reference(c, s), _frac_reference(c, t)
    u_s, u_t = _u_reference(c, s), _u_reference(c, t)
    lhs = 1.0 - _f_reference(c, t).conjugate() * _f_reference(c, s)
    return abs(lhs - np.vdot(u_t, (np.eye(c.dim) - frac_t.conj().T @ frac_s) @ u_s))


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


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (8, 8)])
@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_stacked_evaluation_matches_one_point_formulas(dims, r):
    c = random_colligation(SubspaceSplit(*dims), r, seed=50)
    c.a += 0.05  # off the model identity, so the residuals are not all roundoff
    pts = domains.sample_rG(30, r, seed=51)
    a_fam, b_fam = evaluate(c, pts)
    assert a_fam.shape == b_fam.shape == (1 + c.dim, 30)
    for k, s in enumerate(pts):
        assert np.max(np.abs(b_fam[1:, k] - _u_reference(c, s))) <= DIFF_TOL
        assert abs(b_fam[0, k] - _f_reference(c, s)) <= DIFF_TOL
        su_ref = _frac_reference(c, s) @ _u_reference(c, s)
        assert np.max(np.abs(a_fam[1:, k] - su_ref)) <= DIFF_TOL
        assert np.max(np.abs(eval_u(c, s) - _u_reference(c, s))) <= DIFF_TOL
        assert abs(eval_f(c, s) - _f_reference(c, s)) <= DIFF_TOL
    pairs = list(zip(pts[:10], pts[10:20])) + [(s, s) for s in pts[20:]]
    for s, t in pairs:
        assert abs(model_residual(c, s, t) - _model_residual_reference(c, s, t)) <= DIFF_TOL
    report = schur_certify(c, 30, seed=51)
    assert abs(report.max_abs_f - max(abs(_f_reference(c, s)) for s in pts)) <= DIFF_TOL
    ref_diag = max(_model_residual_reference(c, s, s) for s in pts)
    assert abs(report.max_diag_residual - ref_diag) <= DIFF_TOL
    ref_pairs = max(_model_residual_reference(c, s, t) for s in pts[:8] for t in pts[:8])
    assert abs(linalg.gram_gap(*evaluate(c, pts[:8])) - ref_pairs) <= DIFF_TOL


def test_stacked_evaluation_of_no_points():
    c = random_colligation(SubspaceSplit(2, 3), R_DEFAULT, seed=52)
    a_fam, b_fam = evaluate(c, [])
    assert a_fam.shape == b_fam.shape == (1 + c.dim, 0)
    assert linalg.gram_gap(a_fam, b_fam) == 0.0
    report = schur_certify(c, 0, seed=0)
    assert report.passed and report.max_abs_f == report.max_diag_residual == 0.0


def test_stacked_evaluation_in_blocks_matches_one_block(monkeypatch):
    c = random_colligation(SubspaceSplit(2, 3), R_DEFAULT, seed=57)
    pts = domains.sample_rG(23, R_DEFAULT, seed=58)
    whole = evaluate(c, pts)
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 5 * c.dim**2)
    for fam, ref in zip(evaluate(c, pts), whole):
        assert fam.shape == ref.shape and np.max(np.abs(fam - ref)) <= DIFF_TOL
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 1)
    assert np.max(np.abs(evaluate(c, pts)[1] - whole[1])) <= DIFF_TOL


def test_stacked_evaluation_under_numpy_1_solve_rules(monkeypatch):
    # numpy < 2 reads b as a stack of vectors only when b.ndim == a.ndim - 1
    # and otherwise needs b.ndim >= 2; evaluate must not rely on numpy 2's
    # broadcasting of a 1-d b across a stack.
    solve = np.linalg.solve

    def solve_numpy1(a, b):
        a, b = np.asarray(a), np.asarray(b)
        if b.ndim == a.ndim - 1:
            return solve(a, b[..., None])[..., 0]
        if b.ndim < 2:
            raise ValueError("Input operand 1 does not have enough dimensions")
        return solve(a, b)

    c = random_colligation(SubspaceSplit(2, 3), R_DEFAULT, seed=59)
    pts = domains.sample_rG(6, R_DEFAULT, seed=60)
    whole = evaluate(c, pts)
    monkeypatch.setattr(np.linalg, "solve", solve_numpy1)
    assert np.max(np.abs(evaluate(c, pts)[1] - whole[1])) <= DIFF_TOL
    assert abs(eval_f(c, pts[0]) - whole[1][0, 0]) <= DIFF_TOL


def test_stacked_evaluation_takes_only_point_stacks():
    c = random_colligation(SubspaceSplit(1, 1), R_DEFAULT, seed=61)
    s = domains.sample_rG(1, R_DEFAULT, seed=62)[0]
    for bad in (s, [s + (0.0,)], np.zeros((1, 2, 2))):
        with pytest.raises(ShapeMismatch):
            evaluate(c, bad)


def test_stacked_evaluation_names_the_point_outside_the_domain():
    c = random_colligation(SubspaceSplit(2, 3), R_DEFAULT, seed=53)
    pts = domains.sample_rG(4, R_DEFAULT, seed=54)
    pts[2] = (complex(0.0, 0.9), complex(0.3))
    with pytest.raises(OutsideDomain, match=r"point \(0\.9j, \(0\.3\+0j\)\)"):
        evaluate(c, pts)


@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_stacked_evaluation_against_50_digit_oracle(r):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    c = random_colligation(SubspaceSplit(2, 3), r, seed=55)
    pts = domains.sample_rG(4, r, seed=56)
    fracs = s_UR(pts, c.U, c.R)
    f_vals = evaluate(c, pts)[1][0]

    def mat(a):
        return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in a])

    n = c.dim
    eye = mp.eye(n)
    u_op, r_op, d_op = mat(c.U), mat(c.R.matrix), mat(c.D)
    r_inv = mp.diag([1 / r_op[i, i] for i in range(n)])
    gamma = mat(c.gamma[:, None])
    for k, (s1, s2) in enumerate(pts):
        s1, s2 = mp.mpc(complex(s1)), mp.mpc(complex(s2))
        frac = (2 * s2 * r_inv * u_op - s1 * eye) * mp.inverse(2 * r_op - s1 * u_op)
        su = frac * mp.lu_solve(eye - d_op * frac, gamma)
        f = mp.mpc(c.a) + mp.fsum(su[i] * mp.conj(mp.mpc(complex(c.beta[i]))) for i in range(n))
        frac_gap = max(abs(complex(frac[i, j]) - fracs[k, i, j]) for i in range(n) for j in range(n))
        assert frac_gap <= 1e-12
        assert abs(complex(f) - f_vals[k]) <= 1e-12


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
