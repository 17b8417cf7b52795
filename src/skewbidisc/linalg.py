"""Dense complex linear algebra helpers.

Everything operates on numpy ``complex128`` arrays.  The two non-trivial
operations are :func:`isometry_from_gramians`, which converts a pair of
vector families with equal Gramians into an explicit partial isometry
mapping one family onto the other, and :func:`unitary_extension`, which
completes such a partial isometry to a full unitary matrix.  Every
pair-grid identity the package certifies is an equality of two Gramians,
measured by the single check :func:`gram_gap`.

Default tolerances: 1e-10 for identities between computed quantities,
1e-12 for unitarity defects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionTooSmall, GramianMismatch, ShapeMismatch, SingularMatrix

TOL_IDENTITY = 1e-10
TOL_UNITARY = 1e-12

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


def _as_square(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
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


def inverse(m, rcond: float = RCOND) -> np.ndarray:
    """Invert a square matrix, or each matrix of a ``(..., n, n)`` stack.

    Raises
    ------
    SingularMatrix
        If, for some matrix, the smallest singular value is below ``rcond``
        times the largest (the zero matrix counts as singular).  The whole
        stack is tested, by one batched SVD, before anything is inverted.
    """
    a = _as_square(m, "inverse operand", stack=True)
    if a.size == 0:
        return a.copy()
    svals = np.linalg.svd(a, compute_uv=False).reshape(-1, a.shape[-1])
    bad = (svals[:, 0] == 0.0) | (svals[:, -1] < rcond * svals[:, 0])
    if bad.any():
        k = int(np.argmax(bad))
        raise SingularMatrix(
            f"smallest singular value {svals[k, -1]:.3e} below {rcond:.1e} * norm "
            f"{svals[k, 0]:.3e}" + (f" (matrix {k} of the stack)" if a.ndim > 2 else ""),
            index=k,
        )
    return np.linalg.inv(a)


def blocks(count: int, dim: int) -> list[slice]:
    """Slices of ``range(count)`` holding at most ``BLOCK_ENTRIES / dim^2`` points each."""
    step = max(1, BLOCK_ENTRIES // dim**2)
    return [slice(k, k + step) for k in range(0, count, step)]


def spectral_norm(m):
    """Largest singular value (a float), or the array of them for a ``(..., m, n)`` stack.

    Empty matrices have norm 0.0.
    """
    a = _as_matrix(m, "norm operand", stack=True)
    norms = np.linalg.norm(a, 2, axis=(-2, -1)) if a.size else np.zeros(a.shape[:-2])
    return float(norms) if a.ndim == 2 else norms


def is_unitary(m, tol: float = TOL_UNITARY) -> bool:
    """Check ``M* M = M M* = I`` in spectral norm within ``tol``."""
    a = _as_square(m, "unitarity operand")
    eye = np.eye(a.shape[0])
    return (
        spectral_norm(a.conj().T @ a - eye) <= tol
        and spectral_norm(a @ a.conj().T - eye) <= tol
    )


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

    ``domain_basis`` and ``image_basis`` hold orthonormal columns; the map
    sends the i-th domain basis vector to the i-th image basis vector.
    """

    domain_basis: np.ndarray
    image_basis: np.ndarray
    rank: int

    @property
    def dim_domain(self) -> int:
        return self.domain_basis.shape[0]

    @property
    def dim_image(self) -> int:
        return self.image_basis.shape[0]

    def apply(self, x) -> np.ndarray:
        """Apply the map to a vector (orthogonal complement goes to 0)."""
        v = as_vector(x)
        if v.shape[0] != self.dim_domain:
            raise ShapeMismatch(
                f"vector of length {v.shape[0]} applied to isometry on C^{self.dim_domain}"
            )
        return self.image_basis @ (self.domain_basis.conj().T @ v)


def _family_matrix(fam, name: str) -> np.ndarray:
    """Stack a family of vectors as matrix columns.

    Accepts either a 2-d array whose columns are the family (this is the
    only way to pass an empty family, since a bare empty list carries no
    ambient dimension) or a sequence of 1-d vectors of equal length.
    """
    if isinstance(fam, np.ndarray) and fam.ndim == 2:
        return _as_matrix(fam, name)
    vecs = [as_vector(v, name) for v in fam]
    if not vecs:
        raise ShapeMismatch(
            f"{name}: an empty family must be passed as a (dim, 0) array"
        )
    dims = {v.shape[0] for v in vecs}
    if len(dims) != 1:
        raise ShapeMismatch(f"{name}: vectors have mixed lengths {sorted(dims)}")
    return np.column_stack(vecs)


def gram_gap(A, B) -> float:
    """Largest entry of ``|A^H A - B^H B|``; 0.0 for empty families.

    A and B are families as in :func:`isometry_from_gramians`, with equal
    vector counts but possibly different ambient dimensions.  Entry (i, j)
    is ``<A_j, A_i> - <B_j, B_i>``, so one call checks a pair-grid identity
    ``<A_s, A_t> = <B_s, B_t>`` on all pairs of points.
    """
    a_mat = _family_matrix(A, "family A")
    b_mat = _family_matrix(B, "family B")
    if a_mat.shape[1] != b_mat.shape[1]:
        raise ShapeMismatch(
            f"families have {a_mat.shape[1]} and {b_mat.shape[1]} vectors"
        )
    if a_mat.shape[1] == 0:
        return 0.0
    return float(np.max(np.abs(a_mat.conj().T @ a_mat - b_mat.conj().T @ b_mat)))


def isometry_from_gramians(A, B, tol: float = TOL_IDENTITY) -> PartialIsometry:
    """Build the partial isometry sending family A onto family B.

    Both families must have the same number of vectors and entrywise equal
    Gramians within ``tol``; under that hypothesis a unique isometry
    span(A) -> span(B) with ``V A_i = B_i`` exists.  It is computed from the
    SVD of the stacked A family: singular values below ``tol`` times the
    largest are treated as zero, which fixes the numerical rank.  The image
    frame is re-orthonormalized through its polar factor so both returned
    bases are orthonormal to machine precision.

    Parameters
    ----------
    A, B : sequence of 1-d arrays, or 2-d arrays with the vectors as columns
        The two families.  Empty families are allowed in the 2-d form
        (shape ``(dim, 0)``) and produce a rank-0 isometry.
    tol : float
        Gramian comparison and rank cutoff tolerance.

    Raises
    ------
    GramianMismatch
        If ``max |Gram(A) - Gram(B)|`` exceeds ``tol``.
    """
    a_mat = _family_matrix(A, "family A")
    b_mat = _family_matrix(B, "family B")
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
    domain_basis = u_a[:, :rank]
    if rank == 0:
        image_basis = np.zeros((b_mat.shape[0], 0), dtype=complex)
    else:
        raw = b_mat @ vh_a[:rank].conj().T @ np.diag(1.0 / svals[:rank])
        # Equal Gramians make `raw` orthonormal up to roundoff; snap to the
        # nearest orthonormal frame through the polar decomposition.
        p, _, qh = np.linalg.svd(raw, full_matrices=False)
        image_basis = p @ qh
    return PartialIsometry(domain_basis=domain_basis, image_basis=image_basis, rank=rank)


def _orthonormal_complement(basis: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span."""
    k = basis.shape[1]
    if k == 0:
        return np.eye(dim, dtype=complex)
    proj = np.eye(dim, dtype=complex) - basis @ basis.conj().T
    u, _, _ = np.linalg.svd(proj)
    return u[:, : dim - k]


def unitary_extension(v: PartialIsometry, dim: int) -> np.ndarray:
    """Extend a partial isometry on C^dim to a unitary matrix.

    The orthogonal complements of the domain and image spans are matched up
    in the deterministic order the SVD produces, so the result is a function
    of the input alone.  Any unitary extension works for the constructions
    in this package; this one is just reproducible.

    Raises
    ------
    DimensionTooSmall
        If ``dim`` is smaller than the rank of ``v``.
    ShapeMismatch
        If the bases of ``v`` do not live in C^dim.
    """
    if dim < v.rank:
        raise DimensionTooSmall(f"rank {v.rank} does not fit in dimension {dim}")
    if v.dim_domain != dim or v.dim_image != dim:
        raise ShapeMismatch(
            f"isometry lives in C^{v.dim_domain} -> C^{v.dim_image}, expected C^{dim}"
        )
    dom_full = np.column_stack([v.domain_basis, _orthonormal_complement(v.domain_basis, dim)])
    img_full = np.column_stack([v.image_basis, _orthonormal_complement(v.image_basis, dim)])
    return img_full @ dom_full.conj().T
