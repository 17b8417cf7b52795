"""Command-line verification driver.

Subcommands::

    validate      check a colligation file for unitarity
    certify       Schur-bound and model-identity campaign on a colligation
    synthesize    bidisc model spec -> synthesized model -> extracted colligation
    kernel-check  kernel factorization and substitution campaign
    catalog       dual-path crosscheck of a named closed-form entry
    sample        emit seeded sample points of r.G

Each command prints a JSON report with a stable field order; identical
configurations produce byte-identical reports apart from elapsed_ms.  Exit
status is 0 when every check passed, 1 when some check failed, 2 for
configuration or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import jsonio, linalg
from .catalog import CATALOG_NAMES, catalog_campaign, named_params, rank_one_build
from .colligation import SubspaceSplit, build_R, validate_colligation
from .domains import in_rG, sample_rG, sample_skew_bidisc, sigma, upsilon
from .errors import (
    ConfigError,
    GramianMismatch,
    ParseError,
    SkewBidiscError,
)
from .kernels import (
    KernelContext,
    factorization_residual,
    hermitian_symmetry_residual,
    substitution_residual,
)
from .realization import evaluate, realization_from_model, schur_certify
from .synthesis import (
    eval_w,
    model_f_eval,
    synthesis_sample_points,
    synthesize,
    wrap_as_GrModel,
)

DEFAULT_R = 0.5
DEFAULT_SAMPLES = 200
DEFAULT_SEED = 0


@dataclass(frozen=True)
class RunConfig:
    command: str
    tol: float
    r: float = DEFAULT_R
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    input_path: str | None = None
    output_path: str | None = None
    name: str | None = None
    dims: tuple[int, int] = (2, 3)

    def __post_init__(self):
        if self.samples < 0:
            raise ConfigError(f"--samples must be >= 0, got {self.samples}")
        if self.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {self.seed}")
        if not 0.0 < self.r < 1.0:
            raise ConfigError(f"--r must satisfy 0 < r < 1, got {self.r}")
        if not self.tol > 0.0:
            raise ConfigError(f"--tol must be positive, got {self.tol}")


@dataclass
class Report:
    command: str
    passed: bool
    max_residual: float
    checks: list[tuple[str, float, float]]
    seed: int
    sample_count: int
    elapsed_ms: float = field(default=0.0)


def _finish(command: str, checks: list[tuple[str, float, float]], seed: int,
            sample_count: int, started: float) -> Report:
    passed = all(res <= thr for (_, res, thr) in checks)
    max_residual = max((res for (_, res, _) in checks), default=0.0)
    return Report(
        command=command,
        passed=passed,
        max_residual=max_residual,
        checks=checks,
        seed=seed,
        sample_count=sample_count,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def cmd_validate(cfg: RunConfig) -> Report:
    started = time.perf_counter()
    if cfg.input_path is None:
        raise ConfigError("validate requires --input")
    obj = jsonio.load_json(cfg.input_path)
    colligation = jsonio.colligation_from_json(obj)
    report = validate_colligation(colligation, tol=cfg.tol)
    checks = [(c.name, c.residual, c.threshold) for c in report.checks]
    return _finish("validate", checks, cfg.seed, 0, started)


def cmd_certify(cfg: RunConfig) -> Report:
    started = time.perf_counter()
    if cfg.input_path is None:
        raise ConfigError("certify requires --input")
    obj = jsonio.load_json(cfg.input_path)
    colligation = jsonio.colligation_from_json(obj)
    cert = schur_certify(colligation, cfg.samples, cfg.seed, tol=cfg.tol)
    grid = sample_rG(min(cfg.samples, 20), colligation.r, cfg.seed)
    pair_res = linalg.gram_gap(*evaluate(colligation, grid))
    checks = [
        ("schur_bound", max(0.0, cert.max_abs_f - 1.0), cfg.tol),
        ("diag_model_residual", cert.max_diag_residual, 1e-9),
        ("pair_model_residual", pair_res, 1e-9),
    ]
    return _finish("certify", checks, cfg.seed, cfg.samples, started)


def cmd_synthesize(cfg: RunConfig) -> Report:
    started = time.perf_counter()
    if cfg.input_path is None:
        raise ConfigError("synthesize requires --input")
    obj = jsonio.load_json(cfg.input_path)
    spec = jsonio.model_spec_from_json(obj)
    pts = synthesis_sample_points(4 * spec.dim + 4, spec.r)
    try:
        model = synthesize(spec, pts, tol=cfg.tol)
    except GramianMismatch as exc:
        residual = exc.residual if exc.residual is not None else float("inf")
        return _finish("synthesize", [(exc.check, residual, cfg.tol)], cfg.seed, len(pts), started)
    rep = model.residual_report
    checks = [
        ("sigma_symmetry", rep["sigma_symmetry_residual"], cfg.tol),
        ("bidisc_model", rep["bidisc_model_residual"], cfg.tol),
        ("gramian", rep["gramian_residual"], cfg.tol),
        ("isometry_agreement", rep["isometry_residual"], cfg.tol),
        ("u_unitarity", rep["u_unitarity"], cfg.tol),
    ]
    # Kernel identity 1 - conj(F(mu)) F(lam) = <Z(lam, mu) w(lam), w(mu)> on a
    # pair grid of interior points.  With a = (1 - r l2 U R^-1) w and
    # b = (1 - l1 U R^-1) w, the product form of Z makes it the equality of
    # the Gramians of [1; l1 R^-1 a; r l2 R^-1 b] and [F; a; b].
    grid = sample_skew_bidisc(8, spec.r, cfg.seed + 1)
    rinv = model.R.inv_matrix
    kz_a, kz_b = [], []
    for l1, l2 in grid:
        w = eval_w(model, (l1, l2))
        urinv_w = model.U @ (rinv @ w)
        a = w - spec.r * l2 * urinv_w
        b = w - l1 * urinv_w
        kz_a.append(np.concatenate([[1.0], l1 * (rinv @ a), spec.r * l2 * (rinv @ b)]))
        kz_b.append(np.concatenate([[spec.F.eval((l1, l2))], a, b]))
    checks.append(("kernel_z_identity", linalg.gram_gap(kz_a, kz_b), 1e-9))
    w_sym = max(
        float(np.linalg.norm(eval_w(model, sigma(lam, spec.r)) - eval_w(model, lam)))
        for lam in grid
    )
    checks.append(("w_symmetry", w_sym, 1e-9))
    # Extract a colligation and round-trip the function values.
    gr_model = wrap_as_GrModel(model)
    fresh = sample_rG(4 * (model.dim + 1), spec.r, cfg.seed + 2)
    colligation = realization_from_model(gr_model, fresh, tol=max(cfg.tol, 1e-10))
    val = validate_colligation(colligation, tol=1e-8)
    checks.append(("l_unitary", val.max_residual, 1e-8))
    rt_pts = sample_rG(50, spec.r, cfg.seed + 3)
    rt_f = evaluate(colligation, rt_pts)[1][0]
    roundtrip = max(abs(f - model_f_eval(model, s)) for s, f in zip(rt_pts, rt_f))
    checks.append(("roundtrip_f", roundtrip, 1e-8))
    if cfg.output_path is not None:
        jsonio.dump_json(jsonio.colligation_to_json(colligation), cfg.output_path)
    return _finish("synthesize", checks, cfg.seed, len(pts), started)


def cmd_kernel_check(cfg: RunConfig) -> Report:
    started = time.perf_counter()
    d1, d2 = cfg.dims
    if d1 < 1 or d2 < 1:
        raise ConfigError(f"--dims must both be >= 1, got {d1},{d2}")
    r_op = build_R(SubspaceSplit(d1, d2), cfg.r)
    n_unitaries = 3
    per = max(cfg.samples // n_unitaries, 1) if cfg.samples else 0
    residuals = {"factorization": [], "substitution": [], "hermitian_symmetry": []}
    for i in range(n_unitaries):
        ctx = KernelContext(linalg.haar_unitary(d1 + d2, cfg.seed + i), r_op)
        pairs_s = sample_rG(per, cfg.r, cfg.seed + 100 + i)
        pairs_t = sample_rG(per, cfg.r, cfg.seed + 200 + i)
        lams = sample_skew_bidisc(per, cfg.r, cfg.seed + 300 + i)
        mus = sample_skew_bidisc(per, cfg.r, cfg.seed + 400 + i)
        residuals["factorization"].append(factorization_residual(ctx, pairs_s, pairs_t))
        residuals["substitution"].append(substitution_residual(ctx, lams, mus))
        residuals["hermitian_symmetry"].append(hermitian_symmetry_residual(ctx, pairs_s, pairs_t))
    checks = [
        (name, float(np.max(np.concatenate(res), initial=0.0)), cfg.tol)
        for name, res in residuals.items()
    ]
    return _finish("kernel-check", checks, cfg.seed, n_unitaries * per, started)


def cmd_catalog(cfg: RunConfig) -> Report:
    started = time.perf_counter()
    if cfg.name is None:
        raise ConfigError(f"catalog requires --name (one of {', '.join(CATALOG_NAMES)})")
    params = named_params(cfg.name, cfg.r, cfg.seed)
    campaign = catalog_campaign(params, cfg.name, cfg.samples, cfg.seed)
    checks = [
        ("crosscheck_gap", campaign.max_gap, cfg.tol),
        ("schur_bound", max(0.0, campaign.max_abs_f - 1.0), 1e-12),
        ("denominator_floor_gap", max(0.0, 1e-8 - campaign.min_denominator), 0.0),
    ]
    if cfg.name == "upsilon":
        _, closed_form = rank_one_build(params)
        gap = 0.0
        for s in sample_rG(min(cfg.samples, 200), cfg.r, cfg.seed + 1):
            gap = max(gap, abs(closed_form(s) - upsilon(params.omega1, cfg.r, s)))
        checks.append(("upsilon_identity", gap, 1e-12))
    return _finish("catalog", checks, cfg.seed, cfg.samples, started)


def cmd_sample(cfg: RunConfig) -> Report:
    started = time.perf_counter()
    pts = sample_rG(cfg.samples, cfg.r, cfg.seed)
    bad = sum(0 if in_rG(p, cfg.r, margin=0.0) else 1 for p in pts)
    checks = [("membership", float(bad), 0.0)]
    if cfg.output_path is not None:
        jsonio.dump_json(jsonio.points_to_json(pts), cfg.output_path)
    return _finish("sample", checks, cfg.seed, cfg.samples, started)


_COMMANDS = {
    "validate": cmd_validate,
    "certify": cmd_certify,
    "synthesize": cmd_synthesize,
    "kernel-check": cmd_kernel_check,
    "catalog": cmd_catalog,
    "sample": cmd_sample,
}

def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--dims expects 'd1,d2', got {text!r}")
    try:
        d1, d2 = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"--dims expects integers, got {text!r}") from exc
    return d1, d2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewbidisc",
        description="Verification campaigns for Schur-class functions on the symmetrized skew bidisc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--r", type=float, default=DEFAULT_R)
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--tol", type=float, default=1e-12 if name == "certify" else 1e-10)
        p.add_argument("--input", dest="input_path", default=None)
        p.add_argument("--output", dest="output_path", default=None)
        p.add_argument("--name", default=None)
        p.add_argument("--dims", default="2,3")
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(
            command=args.command,
            r=args.r,
            samples=args.samples,
            seed=args.seed,
            tol=args.tol,
            input_path=args.input_path,
            output_path=args.output_path,
            name=args.name,
            dims=_parse_dims(args.dims),
        )
        report = _COMMANDS[args.command](cfg)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SkewBidiscError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(asdict(report), indent=2))
    return 0 if report.passed else 1


def main() -> None:
    raise SystemExit(run())
