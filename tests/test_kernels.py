import numpy as np
import pytest

from skewbidisc import domains, linalg
from skewbidisc.colligation import SubspaceSplit, build_R
from skewbidisc.errors import InvalidParams, OutsideDomain, ShapeMismatch
from skewbidisc.kernels import (
    KernelContext,
    bidisc_model_residual,
    factorization_residual,
    hermitian_symmetry_residual,
    kernel_Y,
    kernel_Z,
    substitution_residual,
)
from skewbidisc.linalg import haar_unitary

DIFF_TOL = 1e-13


@pytest.fixture
def ctx():
    R = build_R(SubspaceSplit(1, 2), 0.5)
    return KernelContext(U=haar_unitary(3, 42), R=R)


def test_context_rejects_mismatched_shapes():
    R = build_R(SubspaceSplit(1, 1), 0.5)
    with pytest.raises(ShapeMismatch):
        KernelContext(U=np.eye(3, dtype=complex), R=R)


def test_context_rejects_nonunitary():
    R = build_R(SubspaceSplit(1, 1), 0.5)
    with pytest.raises(InvalidParams):
        KernelContext(U=1.5 * np.eye(2, dtype=complex), R=R)


def test_kernels_at_origin(ctx):
    np.testing.assert_allclose(kernel_Y(ctx, (0.0, 0.0), (0.0, 0.0)), 2 * np.eye(3), atol=1e-14)
    np.testing.assert_allclose(kernel_Z(ctx, (0.0, 0.0), (0.0, 0.0)), 2 * np.eye(3), atol=1e-14)


def test_substitution_identity(ctx):
    pts = domains.sample_skew_bidisc(80, ctx.r, seed=6)
    worst = max(
        substitution_residual(ctx, lam, mu) for lam, mu in zip(pts[:40], pts[40:])
    )
    assert worst < 1e-12


def test_factorization_identity(ctx):
    pts = domains.sample_rG(80, ctx.r, seed=7)
    worst = max(
        factorization_residual(ctx, s, t) for s, t in zip(pts[:40], pts[40:])
    )
    assert worst < 1e-12


def test_hermitian_symmetry(ctx):
    pts = domains.sample_rG(40, ctx.r, seed=8)
    worst = max(
        hermitian_symmetry_residual(ctx, s, t) for s, t in zip(pts[:20], pts[20:])
    )
    assert worst < 1e-13


def test_diagonal_Y_is_positive(ctx):
    # On the diagonal the factorized form shows Y(s,s) >= 0.
    for s in domains.sample_rG(30, ctx.r, seed=9):
        Y = kernel_Y(ctx, s, s)
        eigs = np.linalg.eigvalsh(0.5 * (Y + Y.conj().T))
        assert eigs.min() > -1e-12


def test_kernel_domain_guards(ctx):
    r = ctx.r
    with pytest.raises(OutsideDomain):
        kernel_Y(ctx, (2 * r, r * r), (0.0, 0.0))
    with pytest.raises(OutsideDomain):
        kernel_Z(ctx, (r, 1.0), (0.0, 0.0))


# The one-pair formulas written out, as before stacking; the stacked kernels
# and residuals are compared against them.
def _y_reference(ctx, s, t):
    s1, s2 = complex(s[0]), complex(s[1])
    t1, t2 = complex(t[0]).conjugate(), complex(t[1]).conjugate()
    eye = np.eye(ctx.dim)
    rinv = ctx.R.inv_matrix
    rinv2 = rinv @ rinv
    u, uh = ctx.U, ctx.U.conj().T
    term1 = 2.0 * (eye - t2 * s2 * rinv @ uh @ rinv2 @ u @ rinv)
    term2 = (t1 * s2 * rinv2 - s1 * eye) @ (u @ rinv)
    term3 = (rinv @ uh) @ (t2 * s1 * rinv2 - t1 * eye)
    return term1 + term2 + term3


def _z_reference(ctx, lam, mu):
    l1, l2 = complex(lam[0]), complex(lam[1])
    m1, m2 = complex(mu[0]).conjugate(), complex(mu[1]).conjugate()
    r = ctx.r
    eye = np.eye(ctx.dim)
    rinv = ctx.R.inv_matrix
    rinv2 = rinv @ rinv
    u, uh = ctx.U, ctx.U.conj().T
    first = (eye - r * m2 * rinv @ uh) @ (eye - m1 * l1 * rinv2) @ (eye - r * l2 * u @ rinv)
    second = (eye - m1 * rinv @ uh) @ (eye - r * r * m2 * l2 * rinv2) @ (eye - l1 * u @ rinv)
    return first + second


def _frac_reference(ctx, s):
    s1, s2 = complex(s[0]), complex(s[1])
    num = 2.0 * s2 * ctx.R.inv_matrix @ ctx.U - s1 * np.eye(ctx.dim)
    return num @ np.linalg.inv(2.0 * ctx.R.matrix - s1 * ctx.U)


def _residual_references(ctx, s, t, lam, mu):
    eye = np.eye(ctx.dim)
    urinv = ctx.U @ ctx.R.inv_matrix
    a_s, a_t = 2.0 * eye - s[0] * urinv, 2.0 * eye - t[0] * urinv
    inner = eye - _frac_reference(ctx, t).conj().T @ _frac_reference(ctx, s)
    y = _y_reference(ctx, s, t)
    fac = np.linalg.norm(y - 0.5 * a_t.conj().T @ inner @ a_s, 2)
    sub = np.linalg.norm(
        _z_reference(ctx, lam, mu)
        - _y_reference(ctx, domains.pi_map(domains.t_r(lam, ctx.r)), domains.pi_map(domains.t_r(mu, ctx.r))),
        2,
    )
    herm = np.linalg.norm(y.conj().T - _y_reference(ctx, t, s), 2)
    return fac, sub, herm


def _context(dims, r, seed=60, scale=1.0):
    ctx = KernelContext(haar_unitary(sum(dims), seed), build_R(SubspaceSplit(*dims), r))
    # A scaled U breaks the factorization and the substitution identity, so the
    # compared residuals are not all roundoff.
    object.__setattr__(ctx, "U", scale * ctx.U)
    return ctx


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (8, 8)])
@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_stacked_kernels_match_one_pair_formulas(dims, r, monkeypatch):
    ctx = _context(dims, r, scale=1.05)
    n_pairs = 12
    s, t = domains.sample_rG(n_pairs, r, seed=61), domains.sample_rG(n_pairs, r, seed=62)
    lam = domains.sample_skew_bidisc(n_pairs, r, seed=63)
    mu = domains.sample_skew_bidisc(n_pairs, r, seed=64)
    ys, zs = kernel_Y(ctx, s, t), kernel_Z(ctx, lam, mu)
    assert ys.shape == zs.shape == (n_pairs, ctx.dim, ctx.dim)
    stacked = [
        factorization_residual(ctx, s, t),
        substitution_residual(ctx, lam, mu),
        hermitian_symmetry_residual(ctx, s, t),
    ]
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 5 * ctx.dim**2)  # blocks of 5 pairs
    blocked = [
        factorization_residual(ctx, s, t),
        substitution_residual(ctx, lam, mu),
        hermitian_symmetry_residual(ctx, s, t),
    ]
    for k in range(n_pairs):
        y_ref, z_ref = _y_reference(ctx, s[k], t[k]), _z_reference(ctx, lam[k], mu[k])
        assert np.max(np.abs(ys[k] - y_ref)) <= DIFF_TOL
        assert np.max(np.abs(zs[k] - z_ref)) <= DIFF_TOL
        assert np.max(np.abs(kernel_Y(ctx, s[k], t[k]) - y_ref)) <= DIFF_TOL
        assert np.max(np.abs(kernel_Z(ctx, lam[k], mu[k]) - z_ref)) <= DIFF_TOL
        one_pair = [
            factorization_residual(ctx, s[k], t[k]),
            substitution_residual(ctx, lam[k], mu[k]),
            hermitian_symmetry_residual(ctx, s[k], t[k]),
        ]
        refs = _residual_references(ctx, s[k], t[k], lam[k], mu[k])
        for ref, one, whole, parts in zip(refs, one_pair, stacked, blocked):
            assert isinstance(one, float)
            assert whole.shape == parts.shape == (n_pairs,)
            assert max(abs(one - ref), abs(whole[k] - ref), abs(parts[k] - ref)) <= DIFF_TOL
    assert max(refs[:2]) > 1e-3  # the scaled U is visible in the compared residuals


def test_stacked_kernels_of_no_pairs(ctx):
    assert kernel_Y(ctx, [], []).shape == kernel_Z(ctx, [], []).shape == (0, 3, 3)
    for residual in (factorization_residual, substitution_residual, hermitian_symmetry_residual):
        assert residual(ctx, [], []).shape == (0,)


def test_stacked_kernels_name_the_point_outside_the_domain(ctx):
    s = domains.sample_rG(4, ctx.r, seed=65)
    lam = domains.sample_skew_bidisc(4, ctx.r, seed=66)
    bad_s = s[:2] + [(complex(0.0, 0.9), complex(0.3))] + s[3:]
    bad_lam = lam[:2] + [(complex(0.6), complex(0.1))] + lam[3:]
    for call in (kernel_Y, factorization_residual, hermitian_symmetry_residual):
        with pytest.raises(OutsideDomain, match=r"point \(0\.9j, \(0\.3\+0j\)\) is not in r\.G"):
            call(ctx, s, bad_s)
    for call in (kernel_Z, substitution_residual):
        with pytest.raises(OutsideDomain, match=r"point \(\(0\.6\+0j\), \(0\.1\+0j\)\) is not in rD x D"):
            call(ctx, bad_lam, lam)


def test_stacked_kernels_refuse_malformed_stacks(ctx):
    s = domains.sample_rG(4, ctx.r, seed=67)
    lam = domains.sample_skew_bidisc(4, ctx.r, seed=68)
    bad_pairs = [
        (s, s[:3]),  # unequal lengths
        (s[0], s[:1]),  # one point against a stack
        (s[0] + (0.0,), s[0] + (0.0,)),  # three coordinates
        ([p + (0.0,) for p in s], s),
        (np.zeros((1, 2, 2)), np.zeros((1, 2, 2))),
    ]
    for p, q in bad_pairs:
        for call in (kernel_Y, factorization_residual, hermitian_symmetry_residual):
            with pytest.raises(ShapeMismatch):
                call(ctx, p, q)
    for call in (kernel_Z, substitution_residual):
        with pytest.raises(ShapeMismatch):
            call(ctx, lam, lam[:3])


@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_stacked_kernels_against_50_digit_oracle(r):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    ctx = _context((2, 3), r, seed=69)
    s, t = domains.sample_rG(3, r, seed=70), domains.sample_rG(3, r, seed=71)
    lam = domains.sample_skew_bidisc(3, r, seed=72)
    mu = domains.sample_skew_bidisc(3, r, seed=73)
    ys, zs = kernel_Y(ctx, s, t), kernel_Z(ctx, lam, mu)

    def mat(a):
        return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in a])

    n = ctx.dim
    eye = mp.eye(n)
    u = mat(ctx.U)
    uh = u.transpose_conj()
    rinv = mp.diag([1 / mp.mpf(x.real) for x in np.diag(ctx.R.matrix)])
    rinv2 = rinv * rinv
    rr = mp.mpf(r)

    def gap(approx, exact):
        return max(abs(complex(exact[i, j]) - approx[i, j]) for i in range(n) for j in range(n))

    for k in range(3):
        s1, s2 = (mp.mpc(complex(x)) for x in s[k])
        t1, t2 = (mp.conj(mp.mpc(complex(x))) for x in t[k])
        y = (
            2 * (eye - t2 * s2 * rinv * uh * rinv2 * u * rinv)
            + (t1 * s2 * rinv2 - s1 * eye) * u * rinv
            + rinv * uh * (t2 * s1 * rinv2 - t1 * eye)
        )
        l1, l2 = (mp.mpc(complex(x)) for x in lam[k])
        m1, m2 = (mp.conj(mp.mpc(complex(x))) for x in mu[k])
        z = (eye - rr * m2 * rinv * uh) * (eye - m1 * l1 * rinv2) * (eye - rr * l2 * u * rinv) + (
            eye - m1 * rinv * uh
        ) * (eye - rr * rr * m2 * l2 * rinv2) * (eye - l1 * u * rinv)
        assert gap(ys[k], y) <= 1e-12
        assert gap(zs[k], z) <= 1e-12


def _lambda12_maps():
    u1 = lambda lam: np.array([1.0 + 0.0j])
    u2 = lambda lam: np.array([lam[0]], dtype=complex)
    phi = lambda lam: lam[0] * lam[1]
    return u1, u2, phi


def test_bidisc_model_residual_for_product_function():
    # u1 = 1, u2 = lam1 and phi = lam1 lam2 satisfy the two-variable model
    # identity exactly, so the residual is pure roundoff.
    u1, u2, phi = _lambda12_maps()
    r = 0.5
    pts = domains.sample_skew_bidisc(40, r, seed=10)
    pts = [(lam[0] / r, lam[1]) for lam in pts]  # stretch onto the full bidisc
    worst = max(
        bidisc_model_residual(u1, u2, phi, lam, mu)
        for lam, mu in zip(pts[:20], pts[20:])
    )
    assert worst < 1e-13


def test_bidisc_model_residual_detects_wrong_function():
    u1, u2, _ = _lambda12_maps()
    wrong = lambda lam: lam[0]
    res = bidisc_model_residual(u1, u2, wrong, (0.3, 0.4), (0.1, -0.2))
    assert res > 1e-3


def test_bidisc_model_residual_domain_guard():
    u1, u2, phi = _lambda12_maps()
    with pytest.raises(OutsideDomain):
        bidisc_model_residual(u1, u2, phi, (1.2, 0.0), (0.0, 0.0))
