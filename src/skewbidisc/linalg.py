"""Dense complex linear algebra helpers.

Everything operates on numpy ``complex128`` arrays.  The two non-trivial
operations are :func:`isometry_from_gramians`, which converts a pair of
vector families with equal Gramians into an explicit partial isometry
mapping one family onto the other, and :func:`unitary_extension`, which
completes such a partial isometry to a full unitary matrix.  The isometry's
image frame is a polar factor (the nearest isometry), so it divides by no
singular value.  Every pair-grid identity the package certifies is an
equality of two Gramians, measured by the single check :func:`gram_gap`.
:func:`spectral_norm` takes the top eigenvalue of a scaled Gram matrix; when
only the largest norm of a stack is wanted, :func:`largest_spectral_norm`
screens the stack with a Schatten-4 bound and computes the few eigenvalues
that can still be the maximum.

Default tolerances: 1e-10 for identities between computed quantities,
1e-12 for unitarity defects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GramianMismatch, ShapeMismatch, SingularMatrix

# Relative cutoff below which singular values count as zero.
RCOND = 1e-12

# Matrix entries per (N, n, n) working stack (64 KB of complex128): point-stack
# computations run in :func:`blocks` of points, so their memory does not grow with N.
BLOCK_ENTRIES = 1 << 12


def _as_matrix(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Finite complex matrix; with ``stack``, a ``(..., rows, cols)`` stack of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 and not (stack and a.ndim > 2):
        raise ShapeMismatch(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ShapeMismatch(f"{name} contains non-finite entries")
    return a


def as_square(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce to a finite complex square matrix; with ``stack``, a ``(..., n, n)`` stack of them."""
    a = _as_matrix(m, name, stack)
    if a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-d complex array."""
    a = np.asarray(x, dtype=complex).reshape(-1)
    if a.size and not np.all(np.isfinite(a)):
        raise ShapeMismatch(f"{name} contains non-finite entries")
    return a


def inverse(m, index=None) -> np.ndarray:
    """Invert a square matrix, or each matrix of a ``(..., n, n)`` stack.

    Raises
    ------
    SingularMatrix
        If, for some matrix, the smallest singular value is below ``RCOND``
        times the largest (the zero matrix counts as singular).  The whole
        stack is tested, by one batched SVD, before anything is inverted.
        Given ``index``, it names the k-th matrix ``index[k]``, its place in a larger stack.
    """
    a = as_square(m, "inverse operand", stack=True)
    if a.size == 0:
        return a.copy()
    svals = np.linalg.svd(a, compute_uv=False).reshape(-1, a.shape[-1])
    bad = (svals[:, 0] == 0.0) | (svals[:, -1] < RCOND * svals[:, 0])
    if bad.any():
        k = int(np.argmax(bad))
        at = k if index is None else int(index[k])
        raise SingularMatrix(
            f"smallest singular value {svals[k, -1]:.3e} below {RCOND:.1e} * norm "
            f"{svals[k, 0]:.3e}" + (f" (matrix {at} of the stack)" if a.ndim > 2 else ""),
            index=at,
        )
    return np.linalg.inv(a)


def blocks(count: int, dim: int) -> list[slice]:
    """Slices of ``range(count)`` holding at most ``BLOCK_ENTRIES / dim^2`` points each."""
    step = max(1, BLOCK_ENTRIES // dim**2)
    return [slice(k, k + step) for k in range(0, count, step)]


def _scaled_gram(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smaller Gram matrix of each matrix of a nonempty stack, after dividing it by its
    largest entry modulus, and those moduli with the two matrix axes kept."""
    scale = np.abs(a).max(axis=(-2, -1), keepdims=True)
    b = a / np.maximum(scale, np.finfo(float).tiny)
    bh = b.conj().swapaxes(-2, -1)
    gram = bh @ b if a.shape[-1] <= a.shape[-2] else b @ bh
    return gram, scale


def spectral_norm(m):
    """Largest singular value (a float), or the array of them for a ``(..., m, n)`` stack.

    Empty matrices have norm 0.0.  The norm is the square root of the top
    eigenvalue of the smaller Gram matrix (``A^H A`` or ``A A^H``), formed
    after dividing each matrix by its largest entry modulus, so entries near
    1e-300 or 1e300 neither underflow nor overflow.
    """
    a = _as_matrix(m, "norm operand", stack=True)
    if a.size == 0:
        norms = np.zeros(a.shape[:-2])
    else:
        gram, scale = _scaled_gram(a)
        top = np.linalg.eigvalsh(gram)[..., -1]
        norms = np.sqrt(np.maximum(top, 0.0)) * scale[..., 0, 0]
    return float(norms) if a.ndim == 2 else norms


def largest_spectral_norm(m, floor: float = 0.0) -> float:
    """``max(floor, spectral_norm(m).max())`` for an ``(N, m, n)`` stack, bit for bit.

    ``floor`` is returned for an empty stack.  Most matrices are settled without
    an eigenvalue: the Schatten-4 norm ``(sum sigma_i^4)^(1/4)``, which is
    ``sqrt(||G||_F)`` times the scale for the scaled Gram matrix ``G`` of
    :func:`spectral_norm`, lies between ``sigma_max`` and ``n^(1/4) sigma_max``.
    The matrix with the largest bound gets its exact norm first, which raises
    ``floor``; then one ``eigvalsh`` call takes the matrices whose bound is at
    least ``floor (1 - 1e-8)``, and the others are skipped.

    A skipped matrix cannot hold the computed maximum.  Its computed norm is the
    ``sqrt`` of the top ``eigvalsh`` eigenvalue of the computed ``G``.  ``eigvalsh`` is
    backward stable, so that eigenvalue exceeds ``lambda_max(G) <= ||G||_F`` by at most
    a few ``n eps`` times ``||G||_2`` (``G`` is Hermitian to roundoff, and ``eigvalsh``
    reads one triangle of it); the sum of squares under ``||G||_F`` is off by at most
    ``n^2 eps`` relative, and the two square roots halve that twice.  So a computed
    norm exceeds its computed bound by about 1e-14 relative for the n up to a few dozen
    used here (equality holds for rank one, where roundoff alone decides), and the
    slack of 1e-8 covers that six orders over: a bound below ``floor (1 - 1e-8)``
    means a norm below ``floor``.  Each norm that is computed takes the operations
    :func:`spectral_norm` takes, on the same Gram matrix, so it is the same float.
    """
    floor = float(floor)
    a = _as_matrix(m, "norm operand", stack=True)
    if a.ndim != 3:
        raise ShapeMismatch(f"norm operand must be an (N, m, n) stack, got shape {a.shape}")
    if a.size == 0:
        return max(floor, 0.0) if len(a) else floor
    gram, scale = _scaled_gram(a)
    scale = scale[:, 0, 0]
    bound = np.sqrt(np.linalg.norm(gram, axis=(1, 2))) * scale
    cut = 1.0 - 1e-8  # the slack of the docstring
    first = int(np.argmax(bound))
    if bound[first] < floor * cut:
        return floor

    def norms(idx):
        top = np.linalg.eigvalsh(gram[idx])[:, -1]
        return np.sqrt(np.maximum(top, 0.0)) * scale[idx]

    floor = max(floor, float(norms([first])[0]))
    rest = np.flatnonzero(bound >= floor * cut)
    rest = rest[rest != first]
    return max(floor, float(norms(rest).max())) if rest.size else floor


def is_unitary(m, tol: float = 1e-12) -> bool:
    """Check ``M* M = M M* = I`` in spectral norm within ``tol``; Frobenius defects both within
    ``tol (1 - 1e-8)`` settle it with no eigenvalue, as ``||.||_2 <= ||.||_F``."""
    a = as_square(m, "unitarity operand")
    eye = np.eye(a.shape[0])
    defects = np.stack([a.conj().T @ a - eye, a @ a.conj().T - eye])
    if np.linalg.norm(defects, axis=(1, 2)).max() <= tol * (1.0 - 1e-8):
        return True
    return bool(spectral_norm(defects).max() <= tol)


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Draw a Haar-distributed unitary from a seed or numpy Generator.

    Uses the QR factorization of a complex Ginibre matrix with the phase
    convention that makes the result independent of LAPACK's sign choices.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.Generator(np.random.Philox(rng))
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diag(r)
    return q * (d / np.abs(d))


@dataclass(eq=False, frozen=True)
class PartialIsometry:
    """A linear map defined on a subspace, isometric there, zero on its complement.

    ``domain_basis`` and ``image_basis`` hold orthonormal columns, as many in each;
    the map sends the i-th domain basis vector to the i-th image basis vector.
    """

    domain_basis: np.ndarray
    image_basis: np.ndarray

    def __post_init__(self):
        if self.rank != self.image_basis.shape[1]:
            raise ShapeMismatch(f"bases of {self.rank} and {self.image_basis.shape[1]} vectors")

    @property
    def rank(self) -> int:
        return self.domain_basis.shape[1]

    @property
    def dim_domain(self) -> int:
        return self.domain_basis.shape[0]


def _family(fam, name: str) -> np.ndarray:
    """A family of vectors, given as the columns of a 2-d array; a list of vectors is refused."""
    if not isinstance(fam, np.ndarray):
        raise ShapeMismatch(f"{name} must be a 2-d array with the vectors as columns")
    return _as_matrix(fam, name)


def gram_gap(A, B) -> float:
    """Largest entry of ``|A^H A - B^H B|``; 0.0 for empty families.

    A and B are 2-d arrays whose columns are the two families, with equal
    vector counts but possibly different ambient dimensions.  Entry (i, j)
    is ``<A_j, A_i> - <B_j, B_i>``, so one call checks a pair-grid identity
    ``<A_s, A_t> = <B_s, B_t>`` on all pairs of points.
    """
    a_mat = _family(A, "family A")
    b_mat = _family(B, "family B")
    if a_mat.shape[1] != b_mat.shape[1]:
        raise ShapeMismatch(
            f"families have {a_mat.shape[1]} and {b_mat.shape[1]} vectors"
        )
    if a_mat.shape[1] == 0:
        return 0.0
    return float(np.max(np.abs(a_mat.conj().T @ a_mat - b_mat.conj().T @ b_mat)))


def isometry_from_gramians(A, B, tol: float = 1e-10) -> PartialIsometry:
    """Build the partial isometry sending family A onto family B.

    Both families must have the same number of vectors and entrywise equal
    Gramians within ``tol``; under that hypothesis a unique isometry
    span(A) -> span(B) with ``V A_i = B_i`` exists.  It is computed from the
    SVD of the stacked A family: singular values below ``tol`` times the
    largest are treated as zero, which fixes the numerical rank.  On the kept
    directions ``A V_k = U_k S_k``, so ``B V_k = V U_k S_k`` and the image frame
    ``V U_k`` is the polar factor of ``B V_k``, read off one more SVD without
    dividing by any singular value; both bases are orthonormal to roundoff.

    Parameters
    ----------
    A, B : 2-d arrays with the vectors as columns
        The two families.  Empty families (shape ``(dim, 0)``) produce a
        rank-0 isometry.
    tol : float
        Gramian comparison and rank cutoff tolerance.

    Raises
    ------
    GramianMismatch
        If ``max |Gram(A) - Gram(B)|`` exceeds ``tol``.
    """
    a_mat = _family(A, "family A")
    b_mat = _family(B, "family B")
    gap = gram_gap(a_mat, b_mat)
    if gap > tol:
        raise GramianMismatch(
            f"Gramians differ by {gap:.3e} > tol {tol:.1e}",
            residual=gap,
            check="gramian",
        )
    u_a, svals, vh_a = np.linalg.svd(a_mat, full_matrices=False)
    smax = float(svals[0]) if svals.size else 0.0
    rank = int(np.sum(svals > tol * smax)) if smax > 0.0 else 0
    p, _, qh = np.linalg.svd(b_mat @ vh_a[:rank].conj().T, full_matrices=False)
    return PartialIsometry(domain_basis=u_a[:, :rank], image_basis=p @ qh)


def _orthonormal_complement(basis: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span."""
    k = basis.shape[1]
    if k == 0:
        return np.eye(dim, dtype=complex)
    proj = np.eye(dim, dtype=complex) - basis @ basis.conj().T
    u, _, _ = np.linalg.svd(proj)
    return u[:, : dim - k]


def unitary_extension(v: PartialIsometry) -> np.ndarray:
    """Extend a partial isometry on C^dim, dim = ``v.dim_domain``, to a unitary matrix.

    The orthogonal complements of the domain and image spans are matched up
    in the deterministic order the SVD produces, so the result is a function
    of the input alone.  Any unitary extension works for the constructions
    in this package; this one is just reproducible.

    Raises
    ------
    ShapeMismatch
        If the image basis of ``v`` does not live in C^dim too.
    """
    dim = v.dim_domain
    if v.image_basis.shape[0] != dim:
        raise ShapeMismatch(f"isometry lives in C^{dim} -> C^{v.image_basis.shape[0]}")
    dom_full = np.column_stack([v.domain_basis, _orthonormal_complement(v.domain_basis, dim)])
    img_full = np.column_stack([v.image_basis, _orthonormal_complement(v.image_basis, dim)])
    return img_full @ dom_full.conj().T
