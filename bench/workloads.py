"""Workload inputs, campaign argv and the per-campaign correctness gate.

Everything a campaign sees is derived here from the workload seed: the
per-campaign seeds, the Haar colligation files of ``certify-d5`` and the
``(l1 l2)^k`` model spec of ``synthesize-d12``.  The generators use numpy
alone and write the documented JSON formats directly, so the program under
test only ever reads generated files and argv.

Every workload is a closed loop: one client on one thread sends the next
CLI campaign after the previous one has returned.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

R = 0.5

# Campaign inputs written at set-up.  A run that gets further generates the
# inputs of later campaigns on demand, outside the timed region.
POOL = 32

SYNTH_K = 6
CATALOG_NAMES = ("rank-one", "blend", "upsilon", "magic")


@dataclass(frozen=True)
class Campaign:
    """One CLI invocation and what its report must show."""

    index: int
    argv: tuple[str, ...]
    sample_count: int
    output: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def campaign_seed(workload: str, seed: int, index: int) -> int:
    """The CLI ``--seed`` of campaign ``index``: a pure function of the workload seed."""
    tag = zlib.crc32(workload.encode())
    state = np.random.SeedSequence([seed, tag, index]).generate_state(1)[0]
    return int(state) % (2**31 - 1000)


def _cz(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _vec(v) -> list:
    return [_cz(z) for z in v]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary from the QR factorization of a complex Ginibre matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_colligation_json(d1: int, d2: int, r: float, rng: np.random.Generator) -> dict:
    """A colligation file whose block matrix L and U are independent Haar unitaries."""
    n = d1 + d2
    big_l = haar_unitary(n + 1, rng)
    u = haar_unitary(n, rng)
    return {
        "r": r,
        "d1": d1,
        "a": _cz(big_l[0, 0]),
        "beta": _vec(big_l[0, 1:].conj()),
        "gamma": _vec(big_l[1:, 0]),
        "D": [_vec(row) for row in big_l[1:, 1:]],
        "U": [_vec(row) for row in u],
    }


def power_spec_json(k: int, r: float) -> dict:
    """The ``(l1 l2)^k`` model spec: d1 = d2 = k and F = (l1 l2)^k.

    u1 = [(l1 l2)^j] and u2 = [l1 (l1 l2)^j] for j < k.  With x = conj(m1) l1
    and y = conj(m2) l2 the Gram terms are <u1(l), u1(m)> = S and
    <u2(l), u2(m)> = x S, where S = sum_{j<k} (xy)^j, so

        (1 - x) S + (1 - y) x S = (1 - xy) S = 1 - (xy)^k = 1 - conj(F(m)) F(l),

    which is the two-disc model identity.  F is sigma-symmetric because
    sigma(l1, l2) = (r l2, l1 / r) preserves the product l1 l2.
    """

    def unit(j: int) -> list:
        return _vec(np.eye(k)[j])

    return {
        "r": r,
        "d1": k,
        "d2": k,
        "u1": [{"j": j, "k": j, "coeff": unit(j)} for j in range(k)],
        "u2": [{"j": j + 1, "k": j, "coeff": unit(j)} for j in range(k)],
        "F": [{"j": k, "k": k, "coeff": _cz(1.0)}],
    }


def _terms(entries: list) -> list[tuple[int, int, np.ndarray]]:
    out = []
    for t in entries:
        coeff = t["coeff"]
        if isinstance(coeff, dict):
            coeff = [coeff]
        out.append((t["j"], t["k"], np.array([complex(c["re"], c["im"]) for c in coeff])))
    return out


def _poly(terms, lam: np.ndarray) -> np.ndarray:
    """Evaluate sum coeff * l1^j l2^k at each row of lam; shape (points, dim)."""
    l1, l2 = lam[:, 0], lam[:, 1]
    return sum((l1**j * l2**k)[:, None] * c[None, :] for j, k, c in terms)


def spec_precheck_residuals(spec: dict, pts: np.ndarray) -> tuple[float, float]:
    """Sigma-symmetry and two-disc model-identity residuals over all point pairs.

    The same two screens ``synthesize`` applies before it builds anything,
    evaluated independently of the program from the spec as written.
    """
    r = spec["r"]
    u1, u2, f = _terms(spec["u1"]), _terms(spec["u2"]), _terms(spec["F"])
    sig = np.column_stack([r * pts[:, 1], pts[:, 0] / r])
    f_pts = _poly(f, pts)[:, 0]
    sym = float(np.max(np.abs(_poly(f, sig)[:, 0] - f_pts)))
    u1_p, u2_p = _poly(u1, pts), _poly(u2, pts)
    # Rows index lam, columns index mu: <u(lam), u(mu)> = sum u(lam) conj(u(mu)).
    g1 = u1_p @ u1_p.conj().T
    g2 = u2_p @ u2_p.conj().T
    k1 = 1.0 - pts[:, 0][:, None] * pts[:, 0].conj()[None, :]
    k2 = 1.0 - pts[:, 1][:, None] * pts[:, 1].conj()[None, :]
    lhs = 1.0 - f_pts[:, None] * f_pts.conj()[None, :]
    model = float(np.max(np.abs(lhs - k1 * g1 - k2 * g2)))
    return sym, model


def synthesize_points(dim: int, r: float) -> np.ndarray:
    """The points ``synthesize`` screens a spec on: its samples plus its fixed grid."""
    from skewbidisc import domains, synthesis

    pts = synthesis.synthesis_sample_points(4 * dim + 4, r)
    pts += domains.sample_skew_bidisc(
        synthesis.VALIDATION_GRID_SIZE, r, synthesis.VALIDATION_SEED
    )
    return np.array(pts, dtype=complex)


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


class Workload:
    """A named closed loop of CLI campaigns; subclasses fix the argv."""

    name = ""
    why = ""
    # Campaigns in one turn of the input cycle; runs time whole cycles.
    cycle = 1

    def prepare(self, workdir: Path, seed: int) -> None:
        """Write the inputs that every campaign shares."""

    def campaign(self, workdir: Path, seed: int, index: int) -> Campaign:
        raise NotImplementedError


class CertifyD5(Workload):
    name = "certify-d5"
    why = ("forward path at small dimension: 6200 s_UR calls per campaign over 320 points, "
           "each inverse a full SVD; per-point Python overhead and the pair grid dominate")

    def campaign(self, workdir, seed, index):
        s = campaign_seed(self.name, seed, index)
        path = workdir / f"colligation-{index:05d}.json"
        if not path.exists():
            rng = np.random.Generator(np.random.Philox(s))
            _write_json(haar_colligation_json(2, 3, R, rng), path)
        argv = ("certify", "--input", str(path), "--samples", "300", "--seed", str(s))
        return Campaign(index, argv, 300)


class KernelD16(Workload):
    name = "kernel-d16"
    why = ("kernels layer at 16x16, where LAPACK work competes with call overhead: "
           "1200 kernel_Y, 300 kernel_Z, 600 s_UR per campaign; never touches realization")

    def campaign(self, workdir, seed, index):
        s = campaign_seed(self.name, seed, index)
        argv = ("kernel-check", "--r", str(R), "--dims", "8,8", "--samples", "300", "--seed", str(s))
        return Campaign(index, argv, 300)


class SynthesizeD12(Workload):
    name = "synthesize-d12"
    why = ("reverse direction at dim 12: 4096-pair spec precheck, Gramian isometry, unitary "
           "extension, realization_from_model and a JSON write; barely any forward evaluation")

    def spec_path(self, workdir: Path) -> Path:
        return workdir / f"power-spec-k{SYNTH_K}.json"

    def prepare(self, workdir, seed):
        spec = power_spec_json(SYNTH_K, R)
        sym, model = spec_precheck_residuals(spec, synthesize_points(2 * SYNTH_K, R))
        if not (sym <= 1e-10 and model <= 1e-10):
            raise RuntimeError(
                f"generated spec fails synthesize's prechecks: sigma {sym:.3e}, model {model:.3e}"
            )
        _write_json(spec, self.spec_path(workdir))

    def campaign(self, workdir, seed, index):
        s = campaign_seed(self.name, seed, index)
        out = workdir / f"extracted-{index:05d}.json"
        argv = ("synthesize", "--input", str(self.spec_path(workdir)), "--output", str(out),
                "--seed", str(s))
        return Campaign(index, argv, 4 * 2 * SYNTH_K + 4, output=str(out))


class CatalogD2(Workload):
    name = "catalog-d2"
    why = ("only workload on the catalog layer; at dimension 2 every cost is overhead, so a "
           "change that wins at d5 but loses on tiny matrices shows here")
    cycle = len(CATALOG_NAMES)

    def campaign(self, workdir, seed, index):
        s = campaign_seed(self.name, seed, index)
        name = CATALOG_NAMES[index % len(CATALOG_NAMES)]
        argv = ("catalog", "--name", name, "--samples", "1000", "--seed", str(s))
        return Campaign(index, argv, 1000)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (CertifyD5(), KernelD16(), SynthesizeD12(), CatalogD2())
}


def generate(workload: Workload, workdir: Path, seed: int) -> list[Campaign]:
    """Write the shared inputs and the inputs of the first ``POOL`` campaigns."""
    workdir.mkdir(parents=True, exist_ok=True)
    workload.prepare(workdir, seed)
    return [workload.campaign(workdir, seed, i) for i in range(POOL)]


def gate(campaign: Campaign, code: int, report: dict | None) -> str | None:
    """Why a campaign failed, or None when it passed every check.

    A campaign passes when the CLI exits 0 with ``passed`` true, every
    check's residual is within its threshold, ``sample_count`` matches the
    request, and for ``synthesize`` the file written by ``--output`` reloads
    and validates as a unitary colligation at 1e-8.
    """
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no JSON report"
    if report.get("command") != campaign.command or report.get("passed") is not True:
        return f"report says command={report.get('command')!r} passed={report.get('passed')!r}"
    for name, residual, threshold in report["checks"]:
        if not (math.isfinite(residual) and residual <= threshold):
            return f"check {name}: residual {residual!r} over threshold {threshold!r}"
    if report.get("sample_count") != campaign.sample_count:
        return f"sample_count {report.get('sample_count')!r}, requested {campaign.sample_count}"
    if campaign.output is not None:
        from skewbidisc import jsonio, validate_colligation

        path = Path(campaign.output)
        if not path.is_file():
            return f"--output file {path.name} was not written"
        colligation = jsonio.colligation_from_json(json.loads(path.read_text()))
        validation = validate_colligation(colligation, tol=1e-8)
        if not validation.passed:
            return f"written colligation fails validation: max residual {validation.max_residual:.3e}"
    return None
