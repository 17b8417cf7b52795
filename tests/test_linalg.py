import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbidisc import linalg
from skewbidisc.errors import (
    DimensionTooSmall,
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
        np.linalg.norm(isom.apply(a_mat[:, i]) - b_mat[:, i])
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
    assert linalg.gram_gap([np.array([3.0, 4.0j])], [np.array([5.0])]) == 0.0
    assert linalg.gram_gap(np.zeros((2, 0)), np.zeros((5, 0))) == 0.0
    with pytest.raises(ShapeMismatch):
        linalg.gram_gap(np.zeros((2, 3)), np.zeros((2, 2)))


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
    w = linalg.unitary_extension(isom, 2)
    np.testing.assert_allclose(w, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)


def test_unitary_extension_agrees_and_is_unitary():
    a_mat, b_mat = _pipeline_families(n=7, seed=21)
    isom = linalg.isometry_from_gramians(a_mat, b_mat, tol=1e-10)
    w = linalg.unitary_extension(isom, 2)
    assert linalg.is_unitary(w, tol=1e-10)
    assert np.max(np.abs(w @ a_mat - b_mat)) < 1e-10


def test_unitary_extension_of_empty_is_identity():
    empty = np.zeros((3, 0), dtype=complex)
    isom = linalg.isometry_from_gramians(empty, empty, tol=1e-10)
    np.testing.assert_array_equal(linalg.unitary_extension(isom, 3), np.eye(3))


def test_unitary_extension_dimension_too_small():
    isom = linalg.PartialIsometry(
        domain_basis=np.eye(2, dtype=complex),
        image_basis=np.eye(2, dtype=complex),
        rank=2,
    )
    with pytest.raises(DimensionTooSmall):
        linalg.unitary_extension(isom, 1)


def test_unitary_extension_rejects_wrong_ambient():
    isom = linalg.PartialIsometry(
        domain_basis=np.eye(2, dtype=complex),
        image_basis=np.eye(2, dtype=complex),
        rank=2,
    )
    with pytest.raises(ShapeMismatch):
        linalg.unitary_extension(isom, 3)


def test_non_finite_input_rejected():
    with pytest.raises(ShapeMismatch):
        linalg.spectral_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
