import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbidisc import linalg
from skewbidisc.errors import (
    GramianMismatch,
    ShapeMismatch,
    SingularMatrix,
)

finite_complex = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def small_matrices(draw, n=3):
    entries = draw(
        st.lists(finite_complex, min_size=n * n, max_size=n * n)
    )
    return np.array(entries, dtype=complex).reshape(n, n)


def test_inverse_of_identity():
    np.testing.assert_allclose(linalg.inverse(np.eye(3)), np.eye(3))


def test_inverse_times_original_is_identity():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(linalg.inverse(m) @ m, np.eye(4), atol=1e-12)


def test_inverse_rejects_zero_matrix():
    with pytest.raises(SingularMatrix):
        linalg.inverse(np.zeros((2, 2)))


def test_inverse_rejects_numerically_singular():
    m = np.array([[1.0, 0.0], [0.0, 1e-15]], dtype=complex)
    with pytest.raises(SingularMatrix):
        linalg.inverse(m)


def test_inverse_rejects_nonsquare():
    with pytest.raises(ShapeMismatch):
        linalg.inverse(np.ones((2, 3)))


@pytest.mark.parametrize("r", [0.25, 0.5, 0.9])
def test_spectral_norm_of_diagonal(r):
    m = np.diag([1.0, 1.0 / r])
    assert linalg.spectral_norm(m) == pytest.approx(1.0 / r)


def test_spectral_norm_unitary_invariance():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = linalg.haar_unitary(3, 7)
    assert linalg.spectral_norm(u @ m) == pytest.approx(linalg.spectral_norm(m))


def test_spectral_norm_of_zero_and_empty():
    assert linalg.spectral_norm(np.zeros((3, 3))) == 0.0
    assert linalg.spectral_norm(np.zeros((0, 0))) == 0.0


def test_spectral_norm_of_a_stack():
    rng = np.random.Generator(np.random.Philox(11))
    stack = rng.standard_normal((2, 4, 3, 2)) + 1j * rng.standard_normal((2, 4, 3, 2))
    norms = linalg.spectral_norm(stack)
    assert norms.shape == (2, 4)
    for idx in np.ndindex(2, 4):
        assert norms[idx] == pytest.approx(np.linalg.norm(stack[idx], 2), rel=1e-14)
    assert linalg.spectral_norm(np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]
    assert linalg.spectral_norm(np.zeros((0, 3, 3))).shape == (0,)


def _matrices_with_known_norms():
    """Matrices of every shape kind spectral_norm takes: square, both rectangles, 1x1, stacks."""
    rng = np.random.Generator(np.random.Philox(12))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    q1, q2 = linalg.haar_unitary(4, 13), linalg.haar_unitary(4, 14)
    return {
        "square": gaussian(16, 16),
        "tall": gaussian(7, 3),
        "wide": gaussian(3, 7),
        "one_by_one": gaussian(1, 1),
        "zero": np.zeros((4, 5)),
        "rank_one": np.outer(gaussian(5), gaussian(3).conj()),
        "equal_top_pair": q1 @ np.diag([3.0, 3.0, 1.0, 0.5]) @ q2,
        "square_stack": gaussian(16, 16, 16),
        "tall_stack": gaussian(2, 3, 6, 2),
        "wide_stack": gaussian(5, 2, 6),
        "stack_with_zero_and_rank_one": np.stack(
            [np.zeros((3, 3)), np.outer(gaussian(3), gaussian(3)), gaussian(3, 3)]
        ),
    }


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1.0, 1e200, 1e300])
@pytest.mark.parametrize("name", sorted(_matrices_with_known_norms()))
def test_spectral_norm_matches_the_svd_norm(name, scale):
    m = scale * _matrices_with_known_norms()[name]
    got = linalg.spectral_norm(m)
    ref = np.linalg.norm(m, 2, axis=(-2, -1))
    if m.ndim == 2:
        assert isinstance(got, float)
    else:
        assert got.shape == m.shape[:-2]
    assert np.all(np.isfinite(ref)) and np.all(np.abs(got - ref) <= 1e-14 * ref)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 0, 0), (0, 3, 3), (4, 0, 2)])
def test_spectral_norm_of_empty_matrices_is_zero(shape):
    got = linalg.spectral_norm(np.zeros(shape, dtype=complex))
    if len(shape) == 2:
        assert isinstance(got, float) and got == 0.0
    else:
        assert got.shape == shape[:-2] and not got.any()


def _assert_norms_match_the_svd(stack):
    got = linalg.spectral_norm(stack)
    ref = np.linalg.norm(stack, 2, axis=(-2, -1))
    assert got.shape == ref.shape and np.all(np.abs(got - ref) <= 1e-14 * ref)


@pytest.mark.parametrize("seed", range(40))
def test_largest_spectral_norm_is_the_largest_spectral_norm(seed):
    # Each matrix of a stack is scaled on its own, so norms spread over decades stay exact.
    rng = np.random.Generator(np.random.Philox(seed))
    count = int(rng.integers(1, 41))
    n = int(rng.integers(1, 17))
    rows, cols = [(n, n), (n, max(1, n // 2)), (max(1, n // 2), n)][seed % 3]
    stack = rng.standard_normal((count, rows, cols)) + 1j * rng.standard_normal((count, rows, cols))
    stack *= rng.random((count, 1, 1)) ** 4  # norms that spread over decades
    _assert_norms_match_the_svd(stack)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_largest_spectral_norm_of_zero_and_extreme_matrices(scale):
    rng = np.random.Generator(np.random.Philox(6))
    stack = scale * (rng.standard_normal((7, 5, 5)) + 1j * rng.standard_normal((7, 5, 5)))
    stack[[0, 3]] = 0.0
    _assert_norms_match_the_svd(stack)
    assert linalg.spectral_norm(stack)[[0, 3]].tolist() == [0.0, 0.0]
    assert not linalg.spectral_norm(np.zeros((4, 3, 3))).any()


def test_norms_run_without_numpy_2_only_calls(monkeypatch):
    # pyproject allows numpy 1.24, which has no np.vecdot.
    rng = np.random.Generator(np.random.Philox(16))
    stack = rng.standard_normal((6, 4, 3)) + 1j * rng.standard_normal((6, 4, 3))
    norms = linalg.spectral_norm(stack)
    monkeypatch.delattr(np, "vecdot", raising=False)
    np.testing.assert_array_equal(linalg.spectral_norm(stack), norms)


def test_is_unitary_decides_as_the_svd_norm_does():
    def by_svd(m, tol):
        eye = np.eye(m.shape[0])
        return bool(
            np.linalg.norm(m.conj().T @ m - eye, 2) <= tol
            and np.linalg.norm(m @ m.conj().T - eye, 2) <= tol
        )

    u = linalg.haar_unitary(5, 42)
    bump = np.zeros((5, 5))
    bump[2, 3] = 1.0
    cases = [
        (np.eye(4), 0.0),
        (u, 1e-12),
        (u, 0.0),
        (1.01 * np.eye(3), 1e-10),
        (u + 1e-9 * bump, 1e-10),
        (u + 1e-13 * bump, 1e-10),
        (linalg.haar_unitary(16, 3), 1e-12),
        (np.zeros((2, 2)), 1e-10),
    ]
    decisions = [linalg.is_unitary(m, tol) for m, tol in cases]
    assert decisions == [by_svd(m, tol) for m, tol in cases]
    assert decisions == [True, True, False, False, False, True, True, False]


def test_is_unitary_takes_the_spectral_norm_where_frobenius_cannot_settle(eigvalsh_loads):
    # U diag(1 + d) has both defects diag((1 + d)^2 - 1): spectral norm 5e-11, Frobenius norm 2e-10.
    d = np.sqrt(1.0 + 5e-11) - 1.0
    m = linalg.haar_unitary(16, 4) * (1.0 + d)
    defect = m.conj().T @ m - np.eye(16)
    assert np.linalg.norm(defect) > 1e-10 > np.linalg.norm(defect, 2)
    assert linalg.is_unitary(m, 1e-10)
    assert eigvalsh_loads == [2]  # both defects, in one call


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_spectral_norm_refuses_a_non_finite_entry(bad, scale):
    rng = np.random.Generator(np.random.Philox(15))
    stack = scale * (rng.standard_normal((4, 5, 3)) + 1j * rng.standard_normal((4, 5, 3)))
    stack[2, 4, 1] = bad
    for m in (stack, stack[2], stack[2].T, stack.swapaxes(1, 2)):
        with pytest.raises(ShapeMismatch):
            linalg.spectral_norm(m)


def test_is_unitary_accepts_identity_at_zero_tol():
    assert linalg.is_unitary(np.eye(4), tol=0.0)


def test_is_unitary_accepts_haar_sample():
    assert linalg.is_unitary(linalg.haar_unitary(5, 42), tol=1e-12)


def test_is_unitary_rejects_scaled_identity():
    assert not linalg.is_unitary(1.01 * np.eye(3), tol=1e-10)


def test_haar_unitary_is_deterministic():
    np.testing.assert_array_equal(linalg.haar_unitary(4, 9), linalg.haar_unitary(4, 9))


def _pipeline_families(r=0.5, n=6, seed=3):
    # The two Gramian families of the product-function construction,
    # written out by direct algebra: with v(l) = (1/sqrt2)[1; r l2] and
    # v(sigma(l)) = (1/sqrt2)[1; l1], the stacked differences collapse to
    # multiples of the basis vectors.
    rng = np.random.default_rng(seed)
    a_cols, b_cols = [], []
    for _ in range(n):
        l1 = r * complex(*rng.uniform(-0.7, 0.7, 2))
        l2 = complex(*rng.uniform(-0.7, 0.7, 2))
        a_cols.append(np.array([(l1 - r * l2) / np.sqrt(2), 0.0], dtype=complex))
        b_cols.append(np.array([0.0, (r * l2 - l1) / np.sqrt(2)], dtype=complex))
    return np.column_stack(a_cols), np.column_stack(b_cols)


def test_isometry_from_gramians_on_pipeline_families():
    a_mat, b_mat = _pipeline_families()
    isom = linalg.isometry_from_gramians(a_mat, b_mat, tol=1e-10)
    assert isom.rank <= 2
    residual = max(
        np.linalg.norm(isom.image_basis @ (isom.domain_basis.conj().T @ a_mat[:, i]) - b_mat[:, i])
        for i in range(a_mat.shape[1])
    )
    assert residual < 1e-10


def test_isometry_bases_are_orthonormal():
    a_mat, b_mat = _pipeline_families(n=8, seed=12)
    isom = linalg.isometry_from_gramians(a_mat, b_mat, tol=1e-10)
    eye = np.eye(isom.rank)
    np.testing.assert_allclose(
        isom.domain_basis.conj().T @ isom.domain_basis, eye, atol=1e-13
    )
    np.testing.assert_allclose(
        isom.image_basis.conj().T @ isom.image_basis, eye, atol=1e-13
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_isometry_divides_by_no_singular_value(seed):
    # A 12 x 52 family with singular values 1 down to 1e-9, and B = W A for a
    # Haar unitary W.  A construction that divides by S_A amplifies roundoff
    # by up to 1e9 (column residual about 4e-9); the polar factor of B V_k
    # does not.  The polar factor of B A^H weights each direction by its
    # squared singular value and misses W by order 1 on the directions below
    # sqrt(eps).
    rng = np.random.default_rng(seed)
    left = linalg.haar_unitary(12, rng)
    g = rng.standard_normal((52, 12)) + 1j * rng.standard_normal((52, 12))
    right = np.linalg.qr(g)[0].conj().T
    a_mat = left @ np.diag(np.geomspace(1.0, 1e-9, 12)) @ right
    w = linalg.haar_unitary(12, rng)
    b_mat = w @ a_mat
    isom = linalg.isometry_from_gramians(a_mat, b_mat)
    v = isom.image_basis @ isom.domain_basis.conj().T
    assert isom.rank == 12
    assert np.linalg.norm(v @ a_mat - b_mat, axis=0).max() <= 1e-14
    assert np.linalg.norm(v - w, 2) <= 1e-7


def test_isometry_rejects_mismatched_gramians():
    a_mat = np.eye(2, dtype=complex)
    b_mat = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    with pytest.raises(GramianMismatch) as exc_info:
        linalg.isometry_from_gramians(a_mat, b_mat, tol=1e-10)
    assert exc_info.value.check == "gramian"
    assert exc_info.value.residual == 3.0


def test_gram_gap_values():
    a_mat = np.eye(2, dtype=complex)
    # Ambient dimensions may differ; Gram(b) = diag(1, 4).
    b_mat = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]], dtype=complex)
    assert linalg.gram_gap(a_mat, b_mat) == 3.0
    assert linalg.gram_gap(np.array([[3.0], [4.0j]]), np.array([[5.0]])) == 0.0
    assert linalg.gram_gap(np.zeros((2, 0)), np.zeros((5, 0))) == 0.0
    with pytest.raises(ShapeMismatch):
        linalg.gram_gap(np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ShapeMismatch, match="columns"):  # a list would be read as rows
        linalg.gram_gap([np.array([3.0, 4.0j])], [np.array([5.0, 0.0])])


@given(small_matrices())
@settings(max_examples=50, deadline=None)
def test_gram_gap_is_unitarily_invariant(m):
    assert linalg.gram_gap(m, m) == 0.0
    scale = max(1.0, float(np.max(np.abs(m))) ** 2)
    assert linalg.gram_gap(m, linalg.haar_unitary(3, 5) @ m) <= 1e-13 * scale


def test_isometry_empty_families():
    empty = np.zeros((3, 0), dtype=complex)
    isom = linalg.isometry_from_gramians(empty, empty, tol=1e-10)
    assert isom.rank == 0
    assert isom.dim_domain == 3


def test_isometry_rank_is_the_width_of_its_bases():
    a_mat, b_mat = _pipeline_families(n=7, seed=21)
    isom = linalg.isometry_from_gramians(a_mat, b_mat, tol=1e-10)
    assert isom.rank == isom.domain_basis.shape[1] == isom.image_basis.shape[1] == 1
    half = linalg.PartialIsometry(np.eye(3, 2, dtype=complex), np.eye(3, 2, dtype=complex))
    assert half.rank == 2


def test_isometry_zero_families_have_rank_zero():
    zeros = np.zeros((3, 4), dtype=complex)
    isom = linalg.isometry_from_gramians(zeros, zeros, tol=1e-10)
    assert isom.rank == 0


def test_isometry_rejects_count_mismatch():
    with pytest.raises(ShapeMismatch):
        linalg.isometry_from_gramians(
            np.zeros((2, 3), dtype=complex), np.zeros((2, 2), dtype=complex)
        )


def test_unitary_extension_swaps_basis_vectors():
    e1 = np.array([[1.0], [0.0]], dtype=complex)
    e2 = np.array([[0.0], [1.0]], dtype=complex)
    isom = linalg.isometry_from_gramians(e1, e2, tol=1e-12)
    w = linalg.unitary_extension(isom)
    np.testing.assert_allclose(w, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)


def test_unitary_extension_agrees_and_is_unitary():
    a_mat, b_mat = _pipeline_families(n=7, seed=21)
    isom = linalg.isometry_from_gramians(a_mat, b_mat, tol=1e-10)
    w = linalg.unitary_extension(isom)
    assert linalg.is_unitary(w, tol=1e-10)
    assert np.max(np.abs(w @ a_mat - b_mat)) < 1e-10


def test_unitary_extension_of_empty_is_identity():
    empty = np.zeros((3, 0), dtype=complex)
    isom = linalg.isometry_from_gramians(empty, empty, tol=1e-10)
    np.testing.assert_array_equal(linalg.unitary_extension(isom), np.eye(3))


def test_partial_isometry_refuses_bases_of_different_widths():
    with pytest.raises(ShapeMismatch, match="bases of 2 and 1 vectors"):
        linalg.PartialIsometry(np.eye(3, 2, dtype=complex), np.eye(3, 1, dtype=complex))
    with pytest.raises(ShapeMismatch):
        linalg.PartialIsometry(domain_basis=np.zeros((3, 0), dtype=complex), image_basis=np.eye(3, 1, dtype=complex))


def test_unitary_extension_rejects_wrong_ambient():
    isom = linalg.PartialIsometry(
        domain_basis=np.eye(2, dtype=complex),
        image_basis=np.eye(3, 2, dtype=complex),
    )
    with pytest.raises(ShapeMismatch):
        linalg.unitary_extension(isom)


def test_non_finite_input_rejected():
    with pytest.raises(ShapeMismatch):
        linalg.spectral_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
