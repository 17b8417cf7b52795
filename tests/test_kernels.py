import json

import numpy as np
import pytest

from skewbidisc import cli, colligation, domains, kernels, linalg
from skewbidisc.colligation import Resolvent, SubspaceSplit, build_R, s_UR
from skewbidisc.errors import InvalidParams, NotInvertible, OutsideDomain, ShapeMismatch
from skewbidisc.kernels import (
    KernelContext,
    factorization_residual,
    kernel_Y,
    kernel_Z,
    _pi_t_r,
    residual_maxima,
    substitution_residual,
)
from skewbidisc.linalg import haar_unitary

DIFF_TOL = 1e-13
EPS = np.finfo(float).eps


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


def test_context_keeps_a_read_only_copy_of_U():
    u = haar_unitary(5, 43)
    ctx = KernelContext(U=u, R=build_R(SubspaceSplit(2, 3), 0.5))
    s, t = domains.sample_rG(4, ctx.r, seed=44), domains.sample_rG(4, ctx.r, seed=45)
    lam = domains.sample_skew_bidisc(4, ctx.r, seed=46)
    mu = domains.sample_skew_bidisc(4, ctx.r, seed=47)
    before = kernel_Y(ctx, s, t), kernel_Z(ctx, lam, mu)
    u[0, 0] += 1.0
    u[3] *= 1j
    after = kernel_Y(ctx, s, t), kernel_Z(ctx, lam, mu)
    for b, a in zip(before, after):
        np.testing.assert_array_equal(a, b)
    assert not ctx.U.flags.writeable and not ctx.basis.flags.writeable
    assert not ctx.urinv.flags.writeable
    with pytest.raises(ValueError):
        ctx.U[0, 0] = 0.0


def test_kernel_check_makes_no_svd(monkeypatch, capsys):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    # Count calls through np.linalg.svd and the ones np.linalg.norm makes inside numpy.
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setitem(np.linalg.norm._implementation.__globals__, "svd", counting_svd)
    linalg.inverse(np.eye(2))
    np.linalg.norm(np.eye(2), 2)
    assert len(calls) == 2  # the counter sees both kinds of call
    calls.clear()
    assert cli.run(["kernel-check", "--dims", "8,8", "--samples", "300"]) == 0
    assert '"passed": true' in capsys.readouterr().out
    assert calls == []


@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_array_substitution_map_matches_pi_of_t_r(r):
    lam = domains.sample_skew_bidisc(1000, r, seed=48)
    got = _pi_t_r(np.array(lam, dtype=complex), r)
    ref = np.array([domains.pi_map(domains.t_r(z, r)) for z in lam], dtype=complex)
    assert got.shape == (1000, 2)
    assert np.max(np.abs(got - ref)) <= DIFF_TOL


def test_substitution_residual_checks_its_points_once(ctx, monkeypatch):
    lam = domains.sample_skew_bidisc(50, ctx.r, seed=49)
    mu = domains.sample_skew_bidisc(50, ctx.r, seed=50)
    s, t = (_pi_t_r(np.array(p, dtype=complex), ctx.r) for p in (lam, mu))
    expected = linalg.spectral_norm(kernel_Z(ctx, lam, mu) - kernel_Y(ctx, s, t))
    seen = []
    point_stack = kernels.point_stack

    def recording(p, r, domain="r.G"):
        seen.append(domain)
        return point_stack(p, r, domain)

    monkeypatch.setattr(kernels, "point_stack", recording)
    got = substitution_residual(ctx, lam, mu)
    assert seen == ["rD x D", "rD x D"]  # the mapped points are in r.G by construction
    np.testing.assert_array_equal(got, expected)


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
    s, t = pts[:20], pts[20:]
    worst = linalg.spectral_norm(kernel_Y(ctx, s, t).conj().swapaxes(1, 2) - kernel_Y(ctx, t, s)).max()
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
    return fac, sub


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
    stacked = [factorization_residual(ctx, s, t), substitution_residual(ctx, lam, mu)]
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 5 * ctx.dim**2)  # blocks of 5 pairs
    blocked = [factorization_residual(ctx, s, t), substitution_residual(ctx, lam, mu)]
    for k in range(n_pairs):
        y_ref, z_ref = _y_reference(ctx, s[k], t[k]), _z_reference(ctx, lam[k], mu[k])
        assert np.max(np.abs(ys[k] - y_ref)) <= DIFF_TOL
        assert np.max(np.abs(zs[k] - z_ref)) <= DIFF_TOL
        assert np.max(np.abs(kernel_Y(ctx, s[k], t[k]) - y_ref)) <= DIFF_TOL
        assert np.max(np.abs(kernel_Z(ctx, lam[k], mu[k]) - z_ref)) <= DIFF_TOL
        one_pair = [factorization_residual(ctx, s[k], t[k]), substitution_residual(ctx, lam[k], mu[k])]
        refs = _residual_references(ctx, s[k], t[k], lam[k], mu[k])
        for ref, one, whole, parts in zip(refs, one_pair, stacked, blocked):
            assert isinstance(one, float)
            assert whole.shape == parts.shape == (n_pairs,)
            assert max(abs(one - ref), abs(whole[k] - ref), abs(parts[k] - ref)) <= DIFF_TOL
    assert max(refs) > 1e-3  # the scaled U is visible in the compared residuals


def test_stacked_kernels_of_no_pairs(ctx):
    assert kernel_Y(ctx, [], []).shape == kernel_Z(ctx, [], []).shape == (0, 3, 3)
    for residual in (factorization_residual, substitution_residual):
        assert residual(ctx, [], []).shape == (0,)


def test_stacked_kernels_name_the_point_outside_the_domain(ctx):
    s = domains.sample_rG(4, ctx.r, seed=65)
    lam = domains.sample_skew_bidisc(4, ctx.r, seed=66)
    bad_s = s.copy()
    bad_s[2] = (complex(0.0, 0.9), complex(0.3))
    bad_lam = lam[:2] + [(complex(0.6), complex(0.1))] + lam[3:]
    for call in (kernel_Y, factorization_residual):
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
        (np.append(s[0], 0.0), np.append(s[0], 0.0)),  # three coordinates
        (np.column_stack([s, np.zeros(len(s))]), s),
        (np.zeros((1, 2, 2)), np.zeros((1, 2, 2))),
    ]
    for p, q in bad_pairs:
        for call in (kernel_Y, factorization_residual):
            with pytest.raises(ShapeMismatch):
                call(ctx, p, q)
    for call in (kernel_Z, substitution_residual):
        with pytest.raises(ShapeMismatch):
            call(ctx, lam, lam[:3])


def _near_boundary_points(r, count, seed):
    """Points of r.G whose roots have modulus (1 - 1e-6) r, and points of rD x D
    whose coordinates have moduli (1 - 1e-6) r and 1 - 1e-6."""
    rho = 1.0 - 1e-6
    rng = np.random.Generator(np.random.Philox(seed))
    a, b, c, d = np.exp(2j * np.pi * rng.random((4, count)))
    roots = rho * r * a, rho * r * b
    s = np.column_stack([roots[0] + roots[1], roots[0] * roots[1]])
    lam = np.column_stack([rho * r * c, rho * d])
    return s.tolist(), lam.tolist()


@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_stacked_kernels_against_50_digit_oracle(r):
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50
    ctx = _context((2, 3), r, seed=69)
    s_edge, lam_edge = _near_boundary_points(r, 3, seed=74)
    t_edge, mu_edge = _near_boundary_points(r, 3, seed=75)
    s = np.vstack([domains.sample_rG(3, r, seed=70), s_edge])
    t = np.vstack([domains.sample_rG(3, r, seed=71), t_edge])
    lam = domains.sample_skew_bidisc(3, r, seed=72) + lam_edge
    mu = domains.sample_skew_bidisc(3, r, seed=73) + mu_edge
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

    for k in range(len(s)):
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


PUBLIC_RESIDUALS = {"factorization": factorization_residual, "substitution": substitution_residual}


def _hermitian_bound_from_basis(ctx):
    """4r ||A* - B|| + 4r^3 ||(AD)* - DB|| + 2r^4 ||(ADB)* - ADB||, the bound on
    ||Y(s, t)* - Y(t, s)|| over r.G, from the rows of the context's basis."""
    _, a, _, b, ad, _, db, adb = ctx.basis.reshape(8, ctx.dim, ctx.dim)
    d_a, d_ad, d_adb = (linalg.spectral_norm(m.conj().T - n) for m, n in [(a, b), (ad, db), (adb, adb)])
    return 4.0 * ctx.r * d_a + 4.0 * ctx.r**3 * d_ad + 2.0 * ctx.r**4 * d_adb


def _domain_bound_from_basis(ctx):
    """2r^2 ||E_U||, with E_U = R^-2 - R^-1 U* U R^-1 the difference of the basis rows D and AB:
    the bound on both defects over the whole domain."""
    basis = ctx.basis.reshape(8, ctx.dim, ctx.dim)
    return 2.0 * ctx.r * ctx.r * linalg.spectral_norm(basis[2] - basis[5])


def _closed_gap(g):
    """The closed form of an identity's coefficient gap: g on row D, -g on row AB, 0 elsewhere."""
    closed = np.zeros((len(g), 8), dtype=complex)
    closed[:, 2], closed[:, 5] = g, -g
    return closed


def _stated_bounds(ctx, s, t, lam, mu):
    """The factorization and substitution values of residual_maxima by their stated formula,
    2r^2 ||E_U|| + max over the pairs of sum_j (|gap_j - closed_j| + 16 eps (|left_j| + |right_j|)) ||basis_j||_F,
    with each closed form computed here from the points."""
    s, t, lam, mu = (np.array(p, dtype=complex).reshape(-1, 2) for p in (s, t, lam, mu))
    r = ctx.r
    sides = {
        "factorization": (kernels._y_coefs(s, t), kernels._rhs_coefs(s, t), 0.5 * t[:, 0].conj() * s[:, 0]),
        "substitution": (kernels._z_coefs(r, lam, mu), kernels._y_coefs(_pi_t_r(lam, r), _pi_t_r(mu, r)),
                         -(mu[:, 0].conj() * lam[:, 0] + r * r * mu[:, 1].conj() * lam[:, 1])),
    }
    row_norms = np.linalg.norm(ctx.basis, axis=1)
    bounds = {}
    for name, (left, right, g) in sides.items():
        per_pair = (np.abs(left - right - _closed_gap(g)) + 16.0 * EPS * (np.abs(left) + np.abs(right))) @ row_norms
        bounds[name] = _domain_bound_from_basis(ctx) + per_pair.max(initial=0.0)
    return bounds


def _kernel_check_samples(dims, r, samples, seed):
    """The unitaries and samples of `kernel-check`, as (ctx, s, t, lam, mu) per unitary."""
    per = max(samples // 3, 1) if samples else 0
    r_op = build_R(SubspaceSplit(*dims), r)
    return [
        (
            KernelContext(haar_unitary(sum(dims), seed + i), r_op),
            domains.sample_rG(per, r, seed + 100 + i),
            domains.sample_rG(per, r, seed + 200 + i),
            domains.sample_skew_bidisc(per, r, seed + 300 + i),
            domains.sample_skew_bidisc(per, r, seed + 400 + i),
        )
        for i in range(3)
    ]


def _assert_bounds_the_public_residuals(ctx, got, s, t, lam, mu):
    """Each reported value meets its formula, 2r^2 ||E_U|| and every public residual at the pairs."""
    assert {name: got[name] for name in PUBLIC_RESIDUALS} == _stated_bounds(ctx, s, t, lam, mu)
    assert got["hermitian_symmetry"] == _hermitian_bound_from_basis(ctx)
    for name, residual in PUBLIC_RESIDUALS.items():
        p, q = (lam, mu) if name == "substitution" else (s, t)
        assert got[name] >= _domain_bound_from_basis(ctx)
        assert np.all(residual(ctx, p, q) <= got[name])


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (8, 8), (5, 11)])
@pytest.mark.parametrize("r", [0.01, 0.5, 0.999])
@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_check_reports_the_largest_public_residual(dims, r, seed, capsys):
    # The report bounds the largest public residual: it gives the largest, over the three
    # unitaries, of each one's stated bound.
    argv = ["kernel-check", "--dims", "%d,%d" % dims, "--r", str(r), "--samples", "150", "--seed", str(seed)]
    assert cli.run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    worst = dict.fromkeys([*PUBLIC_RESIDUALS, "hermitian_symmetry"], 0.0)
    for ctx, s, t, lam, mu in _kernel_check_samples(dims, r, 150, seed):
        got = residual_maxima(ctx, s, t, lam, mu)
        _assert_bounds_the_public_residuals(ctx, got, s, t, lam, mu)
        worst = {name: max(value, got[name]) for name, value in worst.items()}
    # The JSON floats round-trip exactly.
    assert [(name, value) for name, value, _ in report["checks"]] == list(worst.items())
    assert report["max_residual"] <= 1e-12


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (8, 8), (12, 12)])
@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
@pytest.mark.parametrize("samples", [0, 31, 300])
def test_kernel_check_report_bounds_every_sampled_residual(dims, r, samples, capsys):
    # The report keeps its checks, order, thresholds and sample_count; each value bounds the
    # largest public residual at the campaign's pairs, and with no samples it is 2r^2 ||E_U||.
    for seed in range(3):
        argv = ["kernel-check", "--dims", "%d,%d" % dims, "--r", str(r), "--samples", str(samples), "--seed", str(seed)]
        assert cli.run(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert [(name, tol) for name, _, tol in report["checks"]] == [
            ("factorization", 1e-10), ("substitution", 1e-10), ("hermitian_symmetry", 1e-10)]
        assert report["sample_count"] == (3 * max(samples // 3, 1) if samples else 0)
        values = {name: value for name, value, _ in report["checks"]}
        assert report["passed"] and report["max_residual"] == max(values.values())
        campaign = _kernel_check_samples(dims, r, samples, seed)
        for ctx, s, t, lam, mu in campaign:
            domain = _domain_bound_from_basis(ctx)
            assert values["factorization"] >= np.max(factorization_residual(ctx, s, t), initial=domain)
            assert values["substitution"] >= np.max(substitution_residual(ctx, lam, mu), initial=domain)
        if not samples:
            domain = max(_domain_bound_from_basis(ctx) for ctx, *_ in campaign)
            assert values["factorization"] == values["substitution"] == domain


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (8, 8), (12, 12)])
@pytest.mark.parametrize("r", [1e-4, 1e-3, 0.5, 0.999, 1.0 - 1e-6])
def test_residual_maxima_match_the_public_residuals(dims, r, monkeypatch):
    s, t = domains.sample_rG(23, r, seed=76), domains.sample_rG(23, r, seed=77)
    lam = domains.sample_skew_bidisc(23, r, seed=78)
    mu = domains.sample_skew_bidisc(23, r, seed=79)
    edge_s, edge_lam = _near_boundary_points(r, 4, seed=80)
    edge_t, edge_mu = _near_boundary_points(r, 4, seed=81)
    s, t = np.vstack([s, edge_s]), np.vstack([t, edge_t])
    lam, mu = lam + edge_lam, mu + edge_mu
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 5 * (sum(dims)) ** 2)  # public residuals in blocks of 5 pairs
    # Scaled U: the defects are roundoff, E_U of order 1e-12 r^-2, and E_U of order 0.1 r^-2.
    for scale in (1.0, 1.0 + 1e-12, 1.05):
        ctx = _context(dims, r, scale=scale)
        got = residual_maxima(ctx, s, t, lam, mu)
        _assert_bounds_the_public_residuals(ctx, got, s, t, lam, mu)
        no_pairs = residual_maxima(ctx, [], [], [], [])
        domain = _domain_bound_from_basis(ctx)
        assert no_pairs == {"factorization": domain, "substitution": domain,
                            "hermitian_symmetry": _hermitian_bound_from_basis(ctx)}
        if scale == 1.05:
            assert got["factorization"] > 0.2  # 2r^2 ||E_U|| = 2 (1.05^2 - 1) = 0.205
    with pytest.raises(ShapeMismatch):
        residual_maxima(ctx, s, t[:3], lam, mu)


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (8, 8)])
@pytest.mark.parametrize("r", [0.01, 0.7, 0.999])
def test_hermitian_bound_holds_the_closed_form_of_an_injected_asymmetry(dims, r):
    ctx = _context(dims, r)
    rng = np.random.Generator(np.random.Philox(98))
    noise = rng.standard_normal((7, ctx.dim**2)) + 1j * rng.standard_normal((7, ctx.dim**2))
    object.__setattr__(ctx, "basis", ctx.basis + np.vstack([np.zeros(ctx.dim**2), 1e-3 * noise]))
    _, a, _, b, ad, _, db, adb = ctx.basis.reshape(8, ctx.dim, ctx.dim)
    d_a, d_ad, d_adb = a.conj().T - b, ad.conj().T - db, adb.conj().T - adb
    s, t = domains.sample_rG(100, r, seed=99), domains.sample_rG(100, r, seed=100)
    y = kernels._combine(ctx, kernels._y_coefs(s, t))
    defect = y.conj().swapaxes(1, 2) - kernels._combine(ctx, kernels._y_coefs(t, s))
    s1, s2, t1, t2 = (x[:, None, None] for x in (s[:, 0], s[:, 1], t[:, 0], t[:, 1]))
    closed = (-t1 * d_a + s1.conj() * d_a.conj().T + t2 * s1.conj() * d_ad - t1 * s2.conj() * d_ad.conj().T
              - 2.0 * t2 * s2.conj() * d_adb)
    assert np.max(np.abs(defect - closed)) <= 64 * EPS * max(1.0, np.max(np.abs(y)))
    bound = residual_maxima(ctx, s, t, [], [])["hermitian_symmetry"]
    assert bound == _hermitian_bound_from_basis(ctx)
    assert 1e-10 < linalg.spectral_norm(defect).max() <= bound  # the asymmetry fails the check


def test_a_nearly_unitary_U_that_the_context_accepts_fails_the_domain_bound():
    # U* U = (1 + 9e-11) I passes the unitarity test at 1e-10, and E_U = -9e-11 R^-2.
    ctx = KernelContext(haar_unitary(5, 3) * np.sqrt(1.0 + 9e-11), build_R(SubspaceSplit(2, 3), 0.5))
    bounds = residual_maxima(ctx, [], [], [], [])
    assert 1.7e-10 < bounds["factorization"] == bounds["substitution"] < 1.9e-10


def _flip_coefficient(monkeypatch, builder, column):
    """Make the kernels' coefficient builder ``builder`` flip the sign of one basis row's coefficient."""
    build = getattr(kernels, builder)

    def flipped(*args):
        coefs = build(*args)
        coefs[:, column] *= -1.0
        return coefs

    monkeypatch.setattr(kernels, builder, flipped)


def _broken_kernel_check(monkeypatch, capsys, builder, column):
    """The kernel-check report, as {name: value}, with one coefficient's sign flipped; it must fail."""
    _flip_coefficient(monkeypatch, builder, column)
    assert cli.run(["kernel-check", "--dims", "2,3", "--samples", "60"]) == 1
    checks = {name: value for name, value, _ in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["hermitian_symmetry"] <= 1e-10  # the bound reads the basis, not the builders
    return checks


def test_a_broken_y_coefficient_fails_the_factorization_check(monkeypatch, capsys):
    # Flip the sign of the s1 B term of Y: Y is a side of both identities.
    checks = _broken_kernel_check(monkeypatch, capsys, "_y_coefs", 3)
    assert checks["factorization"] > 1e-3 and checks["substitution"] > 1e-3


def test_a_broken_z_coefficient_fails_the_substitution_check(monkeypatch, capsys):
    # Flip the sign of the -(r l2 + l1) B term of Z.
    checks = _broken_kernel_check(monkeypatch, capsys, "_z_coefs", 3)
    assert checks["substitution"] > 1e-3 and checks["factorization"] <= 1e-10


def test_a_broken_right_hand_side_coefficient_fails_the_factorization_check(monkeypatch, capsys):
    # Flip the sign of the h AB term of the factorization's right-hand side.
    checks = _broken_kernel_check(monkeypatch, capsys, "_rhs_coefs", 5)
    assert checks["factorization"] > 1e-3 and checks["substitution"] <= 1e-10


def _e_u(ctx):
    """E_U = R^-1 (1 - U* U) R^-1, which vanishes for a unitary U, and its scale max(1, max |E_U|)."""
    rinv = ctx.R.inv_matrix
    e_u = rinv @ (np.eye(ctx.dim) - ctx.U.conj().T @ ctx.U) @ rinv
    return e_u, max(1.0, np.max(np.abs(e_u)))


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (8, 8)])
@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_substitution_defect_is_its_closed_form_in_E_U(dims, r):
    ctx = _context(dims, r, scale=1.05)
    e_u, scale = _e_u(ctx)
    lam = np.array(domains.sample_skew_bidisc(40, r, seed=101))
    mu = np.array(domains.sample_skew_bidisc(40, r, seed=102))
    coef = -(mu[:, 0].conj() * lam[:, 0] + r * r * mu[:, 1].conj() * lam[:, 1])
    gap = kernels._defect(kernels._substitution, ctx, lam, mu) - coef[:, None, None] * e_u
    assert np.max(np.abs(gap)) <= 64 * EPS * scale


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (8, 8)])
@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_factorization_defect_is_its_closed_form_in_E_U(dims, r):
    ctx = _context(dims, r, scale=1.05)
    e_u, scale = _e_u(ctx)
    s, t = domains.sample_rG(40, r, seed=103), domains.sample_rG(40, r, seed=104)
    gap = kernels._defect(kernels._factorization, ctx, s, t) - 0.5 * (t[:, 0].conj() * s[:, 0])[:, None, None] * e_u
    assert np.max(np.abs(gap)) <= 64 * EPS * scale


@pytest.mark.parametrize("seed", range(5))
def test_kernel_check_computes_few_eigenvalues(seed, eigvalsh_loads, capsys):
    assert cli.run(["kernel-check", "--dims", "8,8", "--samples", "300", "--seed", str(seed)]) == 0
    capsys.readouterr()
    # One call per unitary, for the norms of E_U and of the three Hermitian gaps; no sampled
    # pair forms a matrix, and the 6 unitarity defects are settled by their Frobenius norms.
    assert eigvalsh_loads == [4, 4, 4]


def _rhs_through_s_UR(ctx, s, t):
    """(1/2) a_t* (1 - F_t* F_s) a_s with the fractions F of the public s_UR."""
    eye = np.eye(ctx.dim)
    urinv = ctx.U @ ctx.R.inv_matrix
    a_s = 2.0 * eye - s[:, 0, None, None] * urinv
    a_t = 2.0 * eye - t[:, 0, None, None] * urinv
    frac_s, frac_t = s_UR(s, ctx.U, ctx.R), s_UR(t, ctx.U, ctx.R)
    return 0.5 * a_t.conj().swapaxes(1, 2) @ (eye - frac_t.conj().swapaxes(1, 2) @ frac_s) @ a_s


def _assert_defect_matches_s_UR(ctx, s, t):
    """The factorization defect against Y minus the right-hand side through s_UR."""
    rhs = _rhs_through_s_UR(ctx, s, t)
    y = kernels._combine(ctx, kernels._y_coefs(s, t))
    gap = np.max(np.abs(kernels._defect(kernels._factorization, ctx, s, t) - (y - rhs)))
    assert gap <= DIFF_TOL * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (8, 8)])
@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
@pytest.mark.parametrize("scale", [1.0, 1.05])
def test_factorization_defect_matches_the_one_through_s_UR(dims, r, scale):
    ctx = _context(dims, r, scale=scale)  # 1.05 leaves the factors at larger |s1| to the SVD
    s, t = domains.sample_rG(40, r, seed=82), domains.sample_rG(40, r, seed=83)
    _assert_defect_matches_s_UR(ctx, s, t)
    assert ctx.u_norm == Resolvent(ctx.U, ctx.R).u_norm


def test_kernel_check_leaves_no_point_to_the_fraction_to_check(monkeypatch, capsys):
    seen = []
    point_stack = colligation.point_stack

    def recording(p, r, domain="r.G"):
        seen.append(domain)
        return point_stack(p, r, domain)

    monkeypatch.setattr(colligation, "point_stack", recording)
    assert cli.run(["kernel-check", "--dims", "2,3", "--samples", "60", "--seed", "3"]) == 0
    capsys.readouterr()
    assert seen == []


def test_kernel_check_checks_each_stack_once(monkeypatch, capsys):
    seen = []
    point_stack = kernels.point_stack

    def recording(p, r, domain="r.G"):
        seen.append((domain, np.asarray(p, dtype=complex).tobytes()))
        return point_stack(p, r, domain)

    monkeypatch.setattr(kernels, "point_stack", recording)
    assert cli.run(["kernel-check", "--dims", "2,3", "--samples", "60", "--seed", "3"]) == 0
    capsys.readouterr()
    expected = [
        (domain, np.asarray(pts, dtype=complex).tobytes())
        for _, *stacks in _kernel_check_samples((2, 3), 0.5, 60, 3)
        for domain, pts in zip(["r.G", "r.G", "rD x D", "rD x D"], stacks)
    ]
    assert seen == expected and len(set(seen)) == 12


# The polynomial form of s_UR (2 - s1 U R^-1) that the factorization check relies on,
# against the all-SVD s_UR.
def _rotation(c):
    """The real rotation [[c, s], [-s, c]]; with R = diag(1, r), U R^-1 has a double
    eigenvalue, and is defective, exactly when c = 2 sqrt(r) / (1 + r)."""
    s = np.sqrt(1.0 - c * c)
    return np.array([[c, s], [-s, c]], dtype=complex)


def _rotation_context(r, delta):
    return KernelContext(_rotation(2.0 * np.sqrt(r) / (1.0 + r) - delta), build_R(SubspaceSplit(1, 1), r))


def _differential_points(r, seed):
    """Sampled points of r.G, then points whose roots have modulus (1 - 1e-6) r."""
    return np.vstack([domains.sample_rG(40, r, seed), np.array(_near_boundary_points(r, 40, seed + 1)[0])])


def _assert_polynomial_form_matches_s_UR(ctx, stack):
    """R^-1 (2 s2 U R^-1 - s1) against s_UR (2 - s1 U R^-1) through s_UR."""
    s1, s2 = stack[:, 0, None, None], stack[:, 1, None, None]
    poly = ctx.R.inv_matrix @ (2.0 * s2 * ctx.urinv - s1 * np.eye(ctx.dim))
    ref = s_UR(stack, ctx.U, ctx.R) @ (2.0 * np.eye(ctx.dim) - s1 * ctx.urinv)
    assert poly.shape == ref.shape == (len(stack), ctx.dim, ctx.dim)
    assert np.max(np.abs(poly - ref)) <= DIFF_TOL * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (8, 8), (12, 12)])
@pytest.mark.parametrize("r", [1e-4, 1e-3, 0.5, 0.999, 1.0 - 1e-6])
def test_polynomial_form_matches_s_UR_on_haar_unitaries(dims, r):
    ctx = KernelContext(haar_unitary(sum(dims), 90), build_R(SubspaceSplit(*dims), r))
    _assert_polynomial_form_matches_s_UR(ctx, _differential_points(r, 91))


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (8, 8), (12, 12)])
@pytest.mark.parametrize("r", [1e-4, 0.5, 1.0 - 1e-6])
def test_factorization_defect_matches_the_one_through_s_UR_near_the_boundary(dims, r):
    ctx = KernelContext(haar_unitary(sum(dims), 90), build_R(SubspaceSplit(*dims), r))
    _assert_defect_matches_s_UR(ctx, _differential_points(r, 105), _differential_points(r, 107)[::-1])


def test_a_haar_unitary_is_settled_without_eigenvalues(eigvalsh_loads):
    R = build_R(SubspaceSplit(8, 8), 0.5)
    KernelContext(haar_unitary(16, 3), R)
    assert eigvalsh_loads == []
    with pytest.raises(InvalidParams):
        KernelContext(haar_unitary(16, 3) * (1.0 + 2e-10), R)  # a defect of 4e-10 in every direction


def _structured_unitaries(d):
    """A diagonal unitary, the permutation swapping neighbours, and the swap of the two halves."""
    n = 2 * d
    swap_halves = np.roll(np.eye(n), d, axis=0)
    return {
        "diagonal": np.diag(np.exp(1j * np.arange(n))),
        "pair permutation": np.eye(n)[np.arange(n) ^ 1],
        "block swap": swap_halves,
    }


@pytest.mark.parametrize("kind", ["diagonal", "pair permutation", "block swap"])
@pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
def test_polynomial_form_matches_s_UR_on_structured_unitaries(kind, r):
    ctx = KernelContext(_structured_unitaries(4)[kind], build_R(SubspaceSplit(4, 4), r))
    _assert_polynomial_form_matches_s_UR(ctx, _differential_points(r, 92))


@pytest.mark.parametrize(("r", "delta"), [(0.25, 1.5e-5), (0.25, -1.5e-5), (0.5, 4e-6), (0.5, -4e-6)])
def test_polynomial_form_matches_s_UR_near_a_defective_B(r, delta):
    # delta > 0 gives complex eigenvalues, delta < 0 two real ones, 1e-5 apart.
    _assert_polynomial_form_matches_s_UR(_rotation_context(r, delta), _differential_points(r, 93))


def _assert_check_passes(ctx, seed):
    """The factorization defect matches the one through s_UR, and the residuals pass."""
    s = _differential_points(ctx.r, seed)
    t = _differential_points(ctx.r, seed + 2)
    _assert_defect_matches_s_UR(ctx, s, t)
    lam, mu = (domains.sample_skew_bidisc(len(s), ctx.r, seed + k) for k in (4, 5))
    assert max(residual_maxima(ctx, s, t, lam, mu).values()) <= 1e-10


def test_factorization_check_passes_for_an_exactly_defective_B():
    # U R^-1 = [[0.8, 2.4], [-0.6, 3.2]] has the double eigenvalue 2 and one eigenvector.
    _assert_check_passes(KernelContext(np.array([[0.8, 0.6], [-0.6, 0.8]], dtype=complex),
                                       build_R(SubspaceSplit(1, 1), 0.25)), 94)


@pytest.mark.parametrize("r", [0.1, 0.5])
@pytest.mark.parametrize("delta", [0.0, 1e-12])
def test_factorization_check_passes_for_a_nearly_defective_B(r, delta):
    _assert_check_passes(_rotation_context(r, delta), 95)


def test_no_points_give_empty_defects_and_the_kernel_check_makes_no_eig(monkeypatch, capsys):
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(1) or eig(a))
    ctx = _context((2, 3), 0.5)
    assert factorization_residual(ctx, [], []).shape == (0,)
    no_points = np.zeros((0, 2), dtype=complex)
    assert kernels._defect(kernels._factorization, ctx, no_points, no_points).shape == (0, 5, 5)
    domain = _domain_bound_from_basis(ctx)
    no_pairs = {"factorization": domain, "substitution": domain, "hermitian_symmetry": _hermitian_bound_from_basis(ctx)}
    assert residual_maxima(ctx, [], [], [], []) == no_pairs
    for samples in ("0", "30"):
        assert cli.run(["kernel-check", "--dims", "8,8", "--samples", samples]) == 0
    capsys.readouterr()
    assert calls == []


def test_singular_factor_names_the_same_point_as_s_UR():
    ctx = _context((2, 3), 0.5)
    s = domains.sample_rG(8, ctx.r, seed=97)
    # Scale U so that 2 - s1 U R^-1 has the eigenvalue 0 at point 5: the factor 2R - s1 U is singular.
    lam = np.linalg.eigvals(ctx.urinv)
    object.__setattr__(ctx, "U", ctx.U * (2.0 / (s[5, 0] * lam[np.argmax(np.abs(lam))])))
    with pytest.raises(NotInvertible) as ref:
        s_UR(s, ctx.U, ctx.R)
    assert "matrix 5 of the stack" in str(ref.value)
    with pytest.raises(NotInvertible) as got:
        kernels._defect(kernels._factorization, ctx, s, s[::-1])
    assert str(got.value) == str(ref.value)
