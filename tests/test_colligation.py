import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from skewbidisc import domains, linalg
from skewbidisc.colligation import (
    Check,
    Colligation,
    Resolvent,
    ROperator,
    SubspaceSplit,
    ValidationReport,
    build_R,
    norm_bound,
    random_colligation,
    s_T,
    s_UR,
    s_UR_bound,
    validate_colligation,
)
from skewbidisc.errors import (
    InvalidParams,
    NotInvertible,
    OutsideDomain,
    ShapeMismatch,
    SingularMatrix,
)
from skewbidisc.linalg import haar_unitary, spectral_norm
from skewbidisc.realization import eval_f, schur_certify

DIFF_TOL = 1e-13


def test_subspace_split():
    sp = SubspaceSplit(2, 3)
    assert sp.total == 5
    for d1, d2 in [(1, 0), (0, 2), (0, 0), (-1, 2), (3, -1)]:
        with pytest.raises(InvalidParams, match=re.escape(f"split ({d1}, {d2}) must have both parts >= 1")):
            SubspaceSplit(d1, d2)


def test_build_R_frozen():
    R = build_R(SubspaceSplit(1, 2), 0.5)
    np.testing.assert_allclose(R.matrix, np.diag([1.0, 0.5, 0.5]))
    np.testing.assert_allclose(R.inv_matrix, np.diag([1.0, 2.0, 2.0]))
    assert R.inv_matrix is R.inv_matrix and not R.inv_matrix.flags.writeable
    assert R.matrix is R.matrix and not R.matrix.flags.writeable  # inv_matrix cannot go stale


def test_build_R_rejects_bad_input():
    # A split with an empty side is refused before any R can be built from it.
    for d1, d2 in [(1, 0), (0, 2)]:
        with pytest.raises(InvalidParams, match="must have both parts >= 1"):
            build_R(SubspaceSplit(d1, d2), 0.5)
    with pytest.raises(InvalidParams):
        build_R(SubspaceSplit(1, 1), 1.0)
    # A directly built ROperator is checked the same way.
    for r in [1.5, 0.0, float("nan")]:
        with pytest.raises(InvalidParams):
            ROperator(SubspaceSplit(1, 1), r)
        with pytest.raises(InvalidParams):
            ROperator(split=SubspaceSplit(1, 1), r=r)
    assert build_R is ROperator


def test_s_UR_frozen_diagonal_example():
    # With U = I and the (1,1) split at r = 1/2, the fraction acts diagonally:
    # entry 0 is (2 s2 - s1) / (2 - s1) and entry 1 is (4 s2 - s1) / (2 - 2 s1)
    # at s = (0.5, 0.08), giving -17/75 and -0.36.
    F = s_UR((0.5, 0.08), np.eye(2, dtype=complex), build_R(SubspaceSplit(1, 1), 0.5))
    np.testing.assert_allclose(F, np.diag([-17.0 / 75.0, -0.36]), atol=1e-14)


def test_s_UR_contraction_on_samples():
    r = 0.5
    split = SubspaceSplit(2, 1)
    R = build_R(split, r)
    U = haar_unitary(3, 11)
    for s in domains.sample_rG(200, r, seed=12):
        F = s_UR(s, U, R)
        assert spectral_norm(F) < 1.0


def test_s_UR_outside_domain():
    r = 0.5
    R = build_R(SubspaceSplit(1, 1), r)
    with pytest.raises(OutsideDomain):
        s_UR((2 * r, r * r), np.eye(2, dtype=complex), R)


def test_s_UR_shape_mismatch():
    R = build_R(SubspaceSplit(1, 1), 0.5)
    with pytest.raises(ShapeMismatch):
        s_UR((0.1, 0.01), np.eye(3, dtype=complex), R)


def _s_UR_reference(s, U, R):
    """The one-point fraction written out, as before stacking."""
    s1, s2 = complex(s[0]), complex(s[1])
    num = 2.0 * s2 * R.inv_matrix @ U - s1 * np.eye(U.shape[0])
    return num @ linalg.inverse(2.0 * R.matrix - s1 * U)


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (8, 8)])
@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_stacked_s_UR_matches_one_point_formula(dims, r):
    R = build_R(SubspaceSplit(*dims), r)
    U = haar_unitary(R.matrix.shape[0], 40)
    pts = domains.sample_rG(40, r, seed=41)
    stack = s_UR(pts, U, R)
    assert stack.shape == (40,) + U.shape
    worst = max(np.max(np.abs(stack[k] - _s_UR_reference(s, U, R))) for k, s in enumerate(pts))
    assert worst <= DIFF_TOL
    np.testing.assert_array_equal(s_UR(pts[7], U, R), s_UR(pts[7:8], U, R)[0])
    assert s_UR([], U, R).shape == (0,) + U.shape


def test_s_UR_stack_names_the_point_outside_the_domain():
    r = 0.5
    R = build_R(SubspaceSplit(2, 3), r)
    pts = domains.sample_rG(5, r, seed=42)
    pts[3] = (complex(2 * r, 0.25), complex(r * r))
    with pytest.raises(OutsideDomain, match=re.escape(f"({pts[3][0]}, {pts[3][1]})")):
        s_UR(pts, haar_unitary(5, 43), R)


def test_s_UR_rejects_malformed_point_stacks():
    R = build_R(SubspaceSplit(1, 1), 0.5)
    for bad in ([0.1, 0.01, 0.0], [[0.1, 0.01, 0.0]] * 2, np.zeros((2, 2, 2))):
        with pytest.raises(ShapeMismatch):
            s_UR(bad, np.eye(2, dtype=complex), R)


def test_singular_member_of_a_stack_is_refused():
    stack = np.array([np.eye(2), np.zeros((2, 2)), np.eye(2)], dtype=complex)
    with pytest.raises(SingularMatrix, match="matrix 1 of the stack") as info:
        linalg.inverse(stack)
    assert info.value.index == 1
    for bad in (np.ones(2), np.ones((3, 2, 3)), np.array([[[np.nan]]])):
        with pytest.raises(ShapeMismatch):
            linalg.inverse(bad)
    # With U = diag(2 / s1, 0) the resolvent factor 2 R - s1 U loses its
    # first diagonal entry exactly at s, and only there.
    r = 0.5
    R = build_R(SubspaceSplit(1, 1), r)
    pts = domains.sample_rG(3, r, seed=44)
    U = np.diag([2.0 / pts[1][0], 0.0])
    assert s_UR([pts[0], pts[2]], U, R).shape == (2, 2, 2)
    named = re.escape(f"at ({complex(pts[1][0])}, {complex(pts[1][1])})")
    with pytest.raises(NotInvertible, match=named + ".*matrix 1 of the stack"):
        s_UR(pts, U, R)
    with pytest.raises(NotInvertible, match=named):
        s_UR(pts[1], U, R)


def _s_UR_all_svd(pts, U, R):
    """The stacked fraction with every resolvent factor tested by linalg.inverse's SVD."""
    stack = np.asarray(pts, dtype=complex).reshape(-1, 2)
    s1, s2 = stack[:, 0, None, None], stack[:, 1, None, None]
    num = 2.0 * s2 * (R.inv_matrix @ U) - s1 * np.eye(U.shape[0])
    return num @ linalg.inverse(2.0 * R.matrix - s1 * U)


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (8, 8)])
@pytest.mark.parametrize("r", [1e-4, 0.5, 1 - 1e-6])
def test_certified_s_UR_is_bitwise_the_all_svd_fraction(dims, r):
    R = build_R(SubspaceSplit(*dims), r)
    U = haar_unitary(R.matrix.shape[0], 50)
    pts = domains.sample_rG(200, r, seed=51)
    np.testing.assert_array_equal(s_UR(pts, U, R), _s_UR_all_svd(pts, U, R))
    np.testing.assert_array_equal(s_UR(pts[3], U, R), _s_UR_all_svd([pts[3]], U, R)[0])
    # A larger U leaves the factors at larger |s1| to the SVD; the values stay the same.
    np.testing.assert_array_equal(s_UR(pts, 1.5 * U, R), _s_UR_all_svd(pts, 1.5 * U, R))


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_certified_points_skip_the_svd_and_the_scalar_membership_test(monkeypatch):
    svd = _count_calls(monkeypatch, np.linalg, "svd")
    member = _count_calls(monkeypatch, domains, "in_rG")
    c = random_colligation(SubspaceSplit(2, 3), 0.5, seed=60)
    assert schur_certify(c, 300, seed=61).passed
    assert (len(svd), len(member)) == (0, 0)
    # ||3 U|| = 3 leaves every point with |s1| >= 1/3 to the SVD guard.
    big = Colligation(r=c.r, split=c.split, a=c.a, beta=c.beta, gamma=c.gamma, D=c.D, U=3 * c.U)
    schur_certify(big, 300, seed=61)
    assert len(svd) > 0 and len(member) == 0
    guarded = sum(len(args[0]) for args in svd)
    assert 0 < guarded < 300


def test_svd_fallback_names_the_same_point_as_the_all_svd_path():
    r = 0.5
    R = build_R(SubspaceSplit(2, 3), r)
    U = 3.0 * haar_unitary(5, 62)
    pts = domains.sample_rG(60, r, seed=63)
    reach = 3.0 * np.abs([s1 for s1, _ in pts])
    assert (reach < 2 * r - 1e-3).any() and (reach > 2 * r).any()  # both kinds of point
    np.testing.assert_array_equal(s_UR(pts, U, R), _s_UR_all_svd(pts, U, R))
    # 2 R - s1 U is singular where 1/s1 is an eigenvalue of (2 R)^{-1} U.  There
    # |s1| <= 2/3, so the double-root points (s1, s1^2 / 4) lie in r.G.
    mu = np.linalg.eigvals(np.linalg.solve(2.0 * R.matrix, U))
    singular = [(complex(1 / m), complex(1 / m**2 / 4)) for m in mu[:2]]
    stack = np.vstack([pts[:20], singular[:1], pts[20:40], singular[1:], pts[40:]])
    with pytest.raises(SingularMatrix) as ref:
        _s_UR_all_svd(stack, U, R)
    k = ref.value.index
    assert k == 20
    z1, z2 = stack[k].tolist()
    named = re.escape(f"at ({z1}, {z2}) in r.G")
    with pytest.raises(NotInvertible, match=f"{named}.*matrix {k} of the stack") as got:
        s_UR(stack, U, R)
    assert str(got.value.__cause__) == str(ref.value)
    with pytest.raises(NotInvertible, match=named):
        s_UR(stack[k], U, R)


@pytest.mark.parametrize("eps", [1e-14, 1e-13, 3e-12, 1e-11, 1e-9])
def test_certificate_and_svd_agree_where_the_bound_is_tight(eps):
    # With U = 1.5 I the factor 2 R - s1 U = diag(2 - 1.5 s1, 1 - 1.5 s1) at r = 1/2
    # meets the bound sigma_min >= 2 r - |s1| ||U|| exactly: at s1 = (1 - eps) / 1.5 its
    # smallest singular value is eps, and linalg.inverse refuses it below 1e-12.
    R = build_R(SubspaceSplit(1, 1), 0.5)
    U = 1.5 * np.eye(2, dtype=complex)
    s1 = (1 - eps) / 1.5
    pts = [(0.1, 0.0), (s1, s1 * s1 / 4), (-0.2j, 0.01)]
    try:
        expected = _s_UR_all_svd(pts, U, R)
    except SingularMatrix as exc:
        assert eps < 1e-12 and exc.index == 1
        with pytest.raises(NotInvertible, match=re.escape(f"at ({complex(s1)}, ")):
            s_UR(pts, U, R)
    else:
        assert eps > 1e-12
        np.testing.assert_array_equal(s_UR(pts, U, R), expected)


def test_resolvent_keeps_a_read_only_copy_of_U():
    R = build_R(SubspaceSplit(2, 3), 0.5)
    u = haar_unitary(5, 64)
    res = Resolvent(u, R)
    pts = domains.sample_rG(30, 0.5, seed=65)
    urinv, fracs = res.urinv.copy(), res.fractions(pts)
    u[0, 0] += 1.0
    u[2] *= 1j
    np.testing.assert_array_equal(res.urinv, urinv)
    np.testing.assert_array_equal(res.fractions(pts), fracs)
    assert not res.U.flags.writeable and not res.urinv.flags.writeable
    with pytest.raises(ValueError):
        res.U[0, 0] = 0.0
    with pytest.raises(ShapeMismatch):
        Resolvent(np.eye(4), R)


def test_s_T_zero_operator():
    q = (0.5 + 0.2j, 0.1)
    F = s_T(q, np.zeros((3, 3), dtype=complex))
    np.testing.assert_allclose(F, -q[0] / 2.0 * np.eye(3), atol=1e-14)


def test_s_T_scalar_matches_mobius():
    q = (0.6, -0.2 + 0.1j)
    for z in (0.3, -0.7j, 0.5 + 0.5j):
        F = s_T(q, np.array([[z]], dtype=complex))
        assert F[0, 0] == pytest.approx(domains.mobius_phi(z, q))


def test_norm_bound_center_free():
    assert norm_bound((0.0, 0.3 - 0.4j)) == pytest.approx(0.5)


def test_norm_bound_outside_domain():
    with pytest.raises(OutsideDomain):
        norm_bound((2.0, 1.0))


def test_norm_bound_dominates_boundary_modulus():
    # The bound equals the largest modulus the scalar fraction attains over
    # unimodular arguments, so a fine grid must stay below it and come close.
    rng = np.random.default_rng(21)
    for _ in range(20):
        z1 = complex(*rng.uniform(-0.6, 0.6, 2))
        z2 = complex(*rng.uniform(-0.6, 0.6, 2))
        q = domains.pi_map((z1, z2))
        bound = norm_bound(q)
        grid = [
            abs(domains.mobius_phi(np.exp(1j * t), q))
            for t in np.linspace(0.0, 2 * np.pi, 2000, endpoint=False)
        ]
        peak = max(grid)
        assert peak <= bound + 1e-12
        assert bound <= peak + 1e-6


def test_s_UR_bound_via_unscaling():
    r = 0.5
    for s in domains.sample_rG(50, r, seed=33):
        direct = s_UR_bound(s, r)
        assert direct == pytest.approx(norm_bound(domains.scale_psi_inv(s, r)))
        assert direct < 1.0


def test_validate_colligation_passes_for_permutation():
    split = SubspaceSplit(1, 1)
    c = Colligation(
        r=0.5,
        split=split,
        a=0.0,
        beta=np.array([0.0, 1.0], dtype=complex),
        gamma=np.array([0.0, 1.0], dtype=complex),
        D=np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        U=np.eye(2, dtype=complex),
    )
    report = validate_colligation(c)
    assert report.passed
    assert report.max_residual < 1e-12


def test_validation_report_passes_only_when_every_check_does():
    ok, bad = Check("ok", 1e-12, 1e-10), Check("bad", 2e-10, 1e-10)
    assert ValidationReport(()).passed and ValidationReport(()).max_residual == 0.0
    assert ValidationReport((ok,)).passed
    report = ValidationReport((ok, bad))
    assert not report.passed and report.max_residual == 2e-10
    assert not ValidationReport((Check("nan", float("nan"), 1.0),)).passed


def test_validate_colligation_catches_nonunitary_L():
    split = SubspaceSplit(1, 1)
    c = Colligation(
        r=0.5,
        split=split,
        a=0.5,
        beta=np.array([1.0, 0.0], dtype=complex),
        gamma=np.array([1.0, 0.0], dtype=complex),
        D=np.zeros((2, 2), dtype=complex),
        U=np.eye(2, dtype=complex),
    )
    report = validate_colligation(c)
    assert not report.passed
    failing = {chk.name for chk in report.checks if not chk.passed}
    assert "l_unitary_left" in failing or "l_unitary_right" in failing


def test_a_colligation_with_an_empty_side_cannot_be_built():
    with pytest.raises(InvalidParams, match=re.escape("split (1, 0) must have both parts >= 1")):
        Colligation(
            r=0.5,
            split=SubspaceSplit(1, 0),
            a=1.0,
            beta=np.zeros(1, dtype=complex),
            gamma=np.zeros(1, dtype=complex),
            D=np.eye(1, dtype=complex),
            U=np.eye(1, dtype=complex),
        )


def test_random_colligation_is_valid_and_deterministic():
    split = SubspaceSplit(2, 3)
    c1 = random_colligation(split, 0.5, seed=9)
    c2 = random_colligation(split, 0.5, seed=9)
    assert validate_colligation(c1).passed
    np.testing.assert_array_equal(c1.D, c2.D)
    np.testing.assert_array_equal(c1.U, c2.U)
    assert c1.a == c2.a
    c3 = random_colligation(split, 0.5, seed=10)
    assert not np.array_equal(c1.D, c3.D)


def test_validate_colligation_catches_perturbed_U():
    c = random_colligation(SubspaceSplit(1, 1), 0.5, seed=14)
    bad = Colligation(
        r=c.r,
        split=c.split,
        a=c.a,
        beta=c.beta,
        gamma=c.gamma,
        D=c.D,
        U=c.U * 1.01,
    )
    report = validate_colligation(bad)
    assert not report.passed


def test_colligation_shape_validation():
    with pytest.raises(ShapeMismatch):
        Colligation(
            r=0.5,
            split=SubspaceSplit(1, 1),
            a=0.0,
            beta=np.zeros(3, dtype=complex),
            gamma=np.zeros(2, dtype=complex),
            D=np.zeros((2, 2), dtype=complex),
            U=np.eye(2, dtype=complex),
        )


def test_colligation_is_frozen_and_replace_rebuilds_R():
    c = random_colligation(SubspaceSplit(2, 3), 0.5, seed=3)
    assert c.R.r == 0.5
    with pytest.raises(FrozenInstanceError):
        c.r = 0.3
    with pytest.raises(FrozenInstanceError):
        c.a = 0.0
    assert c.r == c.R.r == 0.5
    assert replace(c, r=0.3).R.r == 0.3


def test_colligation_keeps_read_only_copies_of_its_blocks():
    c = random_colligation(SubspaceSplit(2, 3), 0.5, seed=3)
    blocks = {name: getattr(c, name).copy() for name in ("beta", "gamma", "D", "U")}
    copy = Colligation(r=c.r, split=c.split, a=c.a, **blocks)
    pts = domains.sample_rG(20, c.r, seed=66)
    before = eval_f(copy, pts)
    for block in blocks.values():
        block[0] += 1.0
    np.testing.assert_array_equal(eval_f(copy, pts), before)
    assert validate_colligation(copy).passed
    for name in blocks:
        assert not getattr(copy, name).flags.writeable
        with pytest.raises(ValueError):
            getattr(copy, name)[0] = 0.0


def test_l_matrix_layout():
    c = random_colligation(SubspaceSplit(1, 2), 0.4, seed=5)
    L = c.l_matrix()
    assert L.shape == (4, 4)
    assert L[0, 0] == c.a
    np.testing.assert_array_equal(L[1:, 0], c.gamma)
    np.testing.assert_array_equal(L[0, 1:], c.beta.conj())
    np.testing.assert_array_equal(L[1:, 1:], c.D)
