import re
from dataclasses import replace

import numpy as np
import pytest

from skewbidisc import domains, linalg
from skewbidisc.catalog import magic_params, rank_one_build, upsilon_params
from skewbidisc.colligation import (
    Colligation,
    SubspaceSplit,
    build_R,
    random_colligation,
    s_UR,
    validate_colligation,
)
from skewbidisc.errors import (
    GramianMismatch,
    InsufficientSamples,
    InvalidParams,
    NotInvertible,
    OutsideDomain,
    ShapeMismatch,
    SingularMatrix,
)
from skewbidisc.realization import (
    GrModel,
    eval_f,
    eval_u,
    evaluate,
    model_families,
    model_residual,
    realization_from_model,
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


def _residuals(report):
    return {ch.name: ch.residual for ch in report.checks}


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


@pytest.mark.parametrize("case", ["as given", "U * 1.2", "D + 0.1 E", "gamma * 1.01"])
def test_model_identity_gap_is_its_closed_form_in_L(case):
    # B = L A column by column for any colligation, so Gram(A) - Gram(B) = A* (1 - L* L) A
    # whatever U is: only a fault in L can open the gap.
    c = random_colligation(SubspaceSplit(2, 3), R_DEFAULT, seed=3)
    rng = np.random.Generator(np.random.Philox(8))
    e = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    c = {
        "as given": c,
        "U * 1.2": replace(c, U=1.2 * c.U),
        "D + 0.1 E": replace(c, D=c.D + 0.1 * e),
        "gamma * 1.01": replace(c, gamma=1.01 * c.gamma),
    }[case]
    a_fam, b_fam = evaluate(c, domains.sample_rG(60, R_DEFAULT, seed=5))
    gram_a, gram_b = a_fam.conj().T @ a_fam, b_fam.conj().T @ b_fam
    big_l = c.l_matrix()
    closed = a_fam.conj().T @ (np.eye(c.dim + 1) - big_l.conj().T @ big_l) @ a_fam
    scale = max(np.max(np.abs(gram_a)), np.max(np.abs(gram_b)))
    assert np.max(np.abs(gram_a - gram_b - closed)) <= 64 * np.finfo(float).eps * max(1.0, scale)
    faulty_l = case in ("D + 0.1 E", "gamma * 1.01")
    assert (np.max(np.abs(gram_a - gram_b)) > 1e-3) == faulty_l


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (8, 8)])
@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_stacked_evaluation_matches_one_point_formulas(dims, r):
    c = random_colligation(SubspaceSplit(*dims), r, seed=50)
    c = replace(c, a=c.a + 0.05)  # off the model identity, so the residuals are not all roundoff
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
    residual = _residuals(schur_certify(c, 30, seed=51))
    ref_max = max(abs(_f_reference(c, s)) for s in pts)
    assert abs(residual["schur_bound"] - max(0.0, ref_max - 1.0)) <= DIFF_TOL
    ref_diag = max(_model_residual_reference(c, s, s) for s in pts)
    assert abs(residual["diag_model_residual"] - ref_diag) <= DIFF_TOL
    ref_pairs = max(_model_residual_reference(c, s, t) for s in pts[:20] for t in pts[:20])
    assert abs(residual["pair_model_residual"] - ref_pairs) <= DIFF_TOL
    # Lifted so that |f| > 1 everywhere: the Schur residual then pins max |f| itself.
    lifted = replace(c, a=c.a + 2.5)
    ref_max = max(abs(_f_reference(lifted, s)) for s in pts)
    assert ref_max > 1.0
    residual = _residuals(schur_certify(lifted, 30, seed=51))
    assert abs(residual["schur_bound"] - (ref_max - 1.0)) <= DIFF_TOL


def test_stacked_evaluation_of_no_points():
    c = random_colligation(SubspaceSplit(2, 3), R_DEFAULT, seed=52)
    a_fam, b_fam = evaluate(c, [])
    assert a_fam.shape == b_fam.shape == (1 + c.dim, 0)
    assert linalg.gram_gap(a_fam, b_fam) == 0.0
    report = schur_certify(c, 0, seed=0)
    assert report.passed and [ch.residual for ch in report.checks] == [0.0, 0.0, 0.0]


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
    s = tuple(domains.sample_rG(1, R_DEFAULT, seed=62)[0].tolist())
    for bad in (s, [s + (0.0,)], np.zeros((1, 2, 2))):
        with pytest.raises(ShapeMismatch):
            evaluate(c, bad)


def test_stacked_evaluation_names_the_point_outside_the_domain():
    c = random_colligation(SubspaceSplit(2, 3), R_DEFAULT, seed=53)
    pts = domains.sample_rG(4, R_DEFAULT, seed=54)
    pts[2] = (complex(0.0, 0.9), complex(0.3))
    with pytest.raises(OutsideDomain, match=r"point \(0\.9j, \(0\.3\+0j\)\)"):
        evaluate(c, pts)


def _roots_at(radius, count, seed):
    """Points of r.G whose two roots have modulus ``radius``, at seeded angles."""
    rng = np.random.Generator(np.random.Philox(seed))
    z1, z2 = radius * np.exp(2j * np.pi * rng.random((2, count)))
    return np.column_stack([z1 + z2, z1 * z2]).tolist()


@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_stacked_evaluation_against_50_digit_oracle(r):
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50
    c = random_colligation(SubspaceSplit(2, 3), r, seed=55)
    pts = np.vstack(
        [domains.sample_rG(4, r, seed=56)]
        + [_roots_at(rho * r, 2, seed=57 + j)  # roots near the boundary
           for j, rho in enumerate((0.9, 1 - 1e-6, 1 - 1e-9))]
    )
    fracs = s_UR(pts, c.U, c.R)
    a_fam, b_fam = evaluate(c, pts)

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
        u = mp.lu_solve(eye - d_op * frac, gamma)
        su = frac * u
        f = mp.mpc(c.a) + mp.fsum(su[i] * mp.conj(mp.mpc(complex(c.beta[i]))) for i in range(n))
        frac_gap = max(abs(complex(frac[i, j]) - fracs[k, i, j]) for i in range(n) for j in range(n))
        assert frac_gap <= 1e-12
        assert abs(complex(f) - b_fam[0, k]) <= 1e-12
        assert max(abs(complex(u[i]) - b_fam[1 + i, k]) for i in range(n)) <= 1e-12
        assert max(abs(complex(su[i]) - a_fam[1 + i, k]) for i in range(n)) <= 1e-12


def _evaluate_reference(c, pts):
    """The families of evaluate from one-point s_UR calls and a solve of 1 - D s_UR each."""
    a_ref = np.ones((1 + c.dim, len(pts)), dtype=complex)
    b_ref = np.empty_like(a_ref)
    for k, s in enumerate(pts):
        frac = s_UR(s, c.U, c.R)
        u = np.linalg.solve(np.eye(c.dim) - c.D @ frac, c.gamma)
        a_ref[1:, k], b_ref[1:, k] = frac @ u, u
        b_ref[0, k] = c.a + np.vdot(c.beta, frac @ u)
    return a_ref, b_ref


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (6, 6), (8, 8)])
@pytest.mark.parametrize("r", [1e-4, 0.5, 1 - 1e-6])
def test_pencil_evaluation_matches_the_one_point_fraction_and_solve(dims, r, monkeypatch):
    c = random_colligation(SubspaceSplit(*dims), r, seed=67)
    pts = np.vstack([domains.sample_rG(40, r, seed=68), _roots_at((1 - 1e-6) * r, 4, seed=69)])
    refs = _evaluate_reference(c, pts)
    model = model_families(_model_from(c), pts)
    stacks = [evaluate(c, pts)]  # in the default blocks: 1, 1, 2 and 3 of them
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 7 * c.dim**2)
    stacks.append(evaluate(c, pts))  # seven blocks
    for fams in stacks:
        for fam, ref in zip(fams, refs):
            assert fam.shape == ref.shape and np.max(np.abs(fam - ref)) <= DIFF_TOL
    for fam, ref in zip(model, refs):
        assert np.max(np.abs(fam - ref)) <= DIFF_TOL


def test_certified_points_evaluate_without_an_inverse(monkeypatch):
    inverses = []  # the number of matrices each call of either function inverts

    def counting(original):
        def counted(m, *args):
            inverses.append(len(m))
            return original(m, *args)
        return counted

    monkeypatch.setattr(np.linalg, "inv", counting(np.linalg.inv))
    monkeypatch.setattr(linalg, "inverse", counting(linalg.inverse))
    c = random_colligation(SubspaceSplit(2, 3), R_DEFAULT, seed=70)
    pts = domains.sample_rG(400, R_DEFAULT, seed=71)
    evaluate(c, pts)
    model_families(_model_from(c), pts[:30])
    assert inverses == []
    # ||3 U|| = 3 leaves the points with |s1| >= 1/3 to linalg.inverse (which
    # calls np.linalg.inv on them), and only those.
    evaluate(replace(c, U=3 * c.U), pts)
    unsettled = sum(3 * abs(s1) >= 2 * R_DEFAULT - 1e-9 for s1, _ in pts)
    assert 0 < unsettled < len(pts) and sum(inverses) == 2 * unsettled


def test_not_invertible_names_the_index_in_the_whole_stack():
    # 2 R - s1 U is singular at point 2500 (U = diag(2 / s1[2500], 0)), which
    # lies in the third block of 1024 points.
    r = 0.5
    c = random_colligation(SubspaceSplit(1, 1), r, seed=72)
    pts = domains.sample_rG(3000, r, seed=73)
    c = replace(c, U=np.diag([2 / pts[2500][0], 0.0]).astype(complex))
    with pytest.raises(SingularMatrix) as ref:
        linalg.inverse(2.0 * c.R.matrix - np.array(pts)[:, 0, None, None] * c.U)
    assert ref.value.index == 2500
    named = re.escape(f"at ({pts[2500][0]}, {pts[2500][1]}) in r.G")
    for fn in (lambda: evaluate(c, pts), lambda: s_UR(pts, c.U, c.R)):
        with pytest.raises(NotInvertible, match=f"{named}.*matrix 2500 of the stack") as got:
            fn()
        assert str(got.value.__cause__) == str(ref.value)


def test_singular_pencil_names_its_first_point_and_index():
    # With U = 1, D = diag(2, 0) and s1 = 0, M - D N = diag(2 - 4 s2, 2 r): exactly
    # singular at s2 = 1/2, where LU meets a zero pivot.
    r = 0.9
    c = random_colligation(SubspaceSplit(1, 1), r, seed=74)
    c = replace(c, U=np.eye(2, dtype=complex), D=np.diag([2.0, 0.0]).astype(complex))
    pts = domains.sample_rG(3000, r, seed=75)
    pts[2500] = pts[2700] = (0.0, 0.5)
    with pytest.raises(NotInvertible, match=re.escape(
        "1 - D s_UR singular at (0j, (0.5+0j)) in r.G (matrix 2500 of the stack)"
    )):
        evaluate(c, pts)
    evaluate(c, pts[:2500])  # the points before it solve


def test_schur_certify_vacuous_and_valid():
    c = random_colligation(SubspaceSplit(1, 2), R_DEFAULT, seed=6)
    empty = schur_certify(c, 0, seed=0)
    assert empty.passed and [ch.residual for ch in empty.checks] == [0.0, 0.0, 0.0]
    report = schur_certify(c, 300, seed=7)
    assert report.passed
    assert [ch.name for ch in report.checks] == [
        "schur_bound", "diag_model_residual", "pair_model_residual"
    ]
    assert [ch.threshold for ch in report.checks] == [1e-12, 1e-9, 1e-9]
    residual = _residuals(report)
    assert residual["schur_bound"] <= 1e-12
    assert residual["diag_model_residual"] < 1e-12


@pytest.mark.parametrize("n", [0, 1, 19, 20, 21, 300])
def test_schur_certify_pair_grid_is_the_first_twenty_points(n):
    c = random_colligation(SubspaceSplit(2, 3), R_DEFAULT, seed=63)
    c = replace(c, a=c.a + 0.05)  # off the model identity, so the pair residual is not roundoff
    grid = domains.sample_rG(min(n, 20), c.r, 64)
    expected = linalg.gram_gap(*evaluate(c, grid))
    assert _residuals(schur_certify(c, n, seed=64))["pair_model_residual"] == expected


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
    assert _residuals(report)["schur_bound"] == pytest.approx(0.2)


def _model_from(c: Colligation) -> GrModel:
    return GrModel(U=c.U, R=c.R, u_eval=lambda s: eval_u(c, s), f_eval=lambda s: eval_f(c, s))


@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_stacked_eval_u_and_eval_f_match_one_point_formulas(k, r, monkeypatch):
    c = random_colligation(SubspaceSplit(k, k), r, seed=65)
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 5 * c.dim**2)  # blocks of 5 points
    pts = np.array(domains.sample_rG(23, r, seed=66))
    u_ref = np.array([_u_reference(c, s) for s in pts.tolist()])
    f_ref = np.array([_f_reference(c, s) for s in pts.tolist()])
    for n in (0, 1, 23):
        u, f = eval_u(c, pts[:n]), eval_f(c, pts[:n])
        assert u.shape == (n, c.dim) and f.shape == (n,)
        assert np.max(np.abs(u - u_ref[:n]), initial=0.0) <= DIFF_TOL
        assert np.max(np.abs(f - f_ref[:n]), initial=0.0) <= DIFF_TOL
    s = tuple(pts[0].tolist())
    assert eval_u(c, s).shape == (c.dim,) and type(eval_f(c, s)) is complex


def test_gr_model_reads_dim_off_U_and_refuses_a_U_that_does_not_match_R():
    # A model of dimension 3 with the R of dimension 4: refused when it is built,
    # not later as a model map of the wrong shape.
    c = random_colligation(SubspaceSplit(1, 2), R_DEFAULT, seed=3)
    model = _model_from(c)
    assert model.dim == c.U.shape[0] == 3 and model.r == c.r
    with pytest.raises(ShapeMismatch, match="U has shape"):
        replace(model, R=build_R(SubspaceSplit(2, 2), R_DEFAULT))


def test_model_families_refuses_bad_model_values():
    c = random_colligation(SubspaceSplit(1, 2), R_DEFAULT, seed=63)
    pts = domains.sample_rG(6, R_DEFAULT, seed=64)
    good = _model_from(c)
    for bad in (
        replace(good, u_eval=lambda s: eval_u(c, s)[:, :2]),
        replace(good, u_eval=lambda s: eval_u(c, s[0])),
        replace(good, f_eval=lambda s: eval_f(c, s)[:-1]),
        replace(good, u_eval=lambda s: np.inf * eval_u(c, s)),
        replace(good, f_eval=lambda s: np.full(len(s), np.nan)),
    ):
        with pytest.raises(ShapeMismatch):
            model_families(bad, pts)


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
    for empty in ([], domains.sample_rG(0, R_DEFAULT, seed=15)):
        with pytest.raises(InvalidParams):
            realization_from_model(_model_from(c), empty)


def test_realization_takes_a_stack_or_a_list_of_points():
    c = random_colligation(SubspaceSplit(2, 3), R_DEFAULT, seed=16)
    pts = domains.sample_rG(24, R_DEFAULT, seed=17)
    from_stack = realization_from_model(_model_from(c), pts)
    from_list = realization_from_model(_model_from(c), [tuple(p) for p in pts.tolist()])
    np.testing.assert_array_equal(from_stack.l_matrix(), from_list.l_matrix())
    with pytest.raises(InsufficientSamples):
        realization_from_model(_model_from(c), [tuple(p) for p in pts[:3].tolist()])

