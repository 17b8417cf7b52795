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
import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import jsonio, linalg
from .catalog import CATALOG_NAMES, catalog_campaign, named_params, rank_one_build
from .colligation import Check, SubspaceSplit, ValidationReport, build_R, validate_colligation
from .domains import outside_points, sample_rG, sample_skew_bidisc, upsilon
from .errors import (
    ConfigError,
    GramianMismatch,
    ParseError,
    SkewBidiscError,
)
from .kernels import KernelContext, residual_maxima
from .realization import evaluate, realization_from_model, schur_certify
from .synthesis import (
    kernel_checks,
    model_f_eval,
    synthesis_sample_points,
    synthesize,
    wrap_as_GrModel,
)

DEFAULT_R = 0.5
DEFAULT_SAMPLES = 200
DEFAULT_SEED = 0
DEFAULT_TOL = 1e-10
# certify's bound |f| <= 1 + tol is checked tighter than the other identities.
CERTIFY_TOL = 1e-12


@dataclass(frozen=True)
class RunConfig:
    tol: float = DEFAULT_TOL
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
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ConfigError(f"--tol must be positive and finite, got {self.tol}")


def cmd_validate(cfg: RunConfig) -> tuple[Sequence[Check], int]:
    if cfg.input_path is None:
        raise ConfigError("validate requires --input")
    obj = jsonio.load_json(cfg.input_path)
    colligation = jsonio.colligation_from_json(obj)
    return validate_colligation(colligation, tol=cfg.tol).checks, 0


def cmd_certify(cfg: RunConfig) -> tuple[Sequence[Check], int]:
    if cfg.input_path is None:
        raise ConfigError("certify requires --input")
    obj = jsonio.load_json(cfg.input_path)
    colligation = jsonio.colligation_from_json(obj)
    return schur_certify(colligation, cfg.samples, cfg.seed, tol=cfg.tol).checks, cfg.samples


def cmd_synthesize(cfg: RunConfig) -> tuple[Sequence[Check], int]:
    if cfg.input_path is None:
        raise ConfigError("synthesize requires --input")
    obj = jsonio.load_json(cfg.input_path)
    spec = jsonio.model_spec_from_json(obj)
    pts = synthesis_sample_points(4 * spec.dim + 4, spec.r)
    try:
        model = synthesize(spec, pts, tol=cfg.tol)
    except GramianMismatch as exc:
        return [Check(exc.check, exc.residual, cfg.tol)], len(pts)
    rep = model.residual_report
    checks = [
        Check("sigma_symmetry", rep["sigma_symmetry_residual"], cfg.tol),
        Check("bidisc_model", rep["bidisc_model_residual"], cfg.tol),
        Check("gramian", rep["gramian_residual"], cfg.tol),
        Check("isometry_agreement", rep["isometry_residual"], cfg.tol),
        Check("u_unitarity", rep["u_unitarity"], cfg.tol),
    ]
    checks += kernel_checks(model, sample_skew_bidisc(8, spec.r, cfg.seed + 1))
    # Extract a colligation and round-trip the function values.
    gr_model = wrap_as_GrModel(model)
    fresh = sample_rG(4 * (model.dim + 1), spec.r, cfg.seed + 2)
    colligation = realization_from_model(gr_model, fresh, tol=max(cfg.tol, 1e-10))
    val = validate_colligation(colligation, tol=1e-8)
    checks.append(Check("l_unitary", val.max_residual, 1e-8))
    rt_pts = sample_rG(50, spec.r, cfg.seed + 3)
    rt_f = evaluate(colligation, rt_pts)[1][0]
    roundtrip = float(np.max(np.abs(rt_f - model_f_eval(model, rt_pts))))
    checks.append(Check("roundtrip_f", roundtrip, 1e-8))
    if cfg.output_path is not None:
        jsonio.dump_json(jsonio.colligation_to_json(colligation), cfg.output_path)
    return checks, len(pts)


def cmd_kernel_check(cfg: RunConfig) -> tuple[Sequence[Check], int]:
    r_op = build_R(SubspaceSplit(*cfg.dims), cfg.r)
    n_unitaries = 3
    per = max(cfg.samples // n_unitaries, 1) if cfg.samples else 0
    worst: dict[str, float] = {}
    for i in range(n_unitaries):
        ctx = KernelContext(linalg.haar_unitary(r_op.split.total, cfg.seed + i), r_op)
        pairs_s = sample_rG(per, cfg.r, cfg.seed + 100 + i)
        pairs_t = sample_rG(per, cfg.r, cfg.seed + 200 + i)
        lams = sample_skew_bidisc(per, cfg.r, cfg.seed + 300 + i)
        mus = sample_skew_bidisc(per, cfg.r, cfg.seed + 400 + i)
        for name, value in residual_maxima(ctx, pairs_s, pairs_t, lams, mus).items():
            worst[name] = max(worst.get(name, 0.0), value)
    checks = [Check(name, value, cfg.tol) for name, value in worst.items()]
    return checks, n_unitaries * per


def cmd_catalog(cfg: RunConfig) -> tuple[Sequence[Check], int]:
    if cfg.name is None:
        raise ConfigError(f"catalog requires --name (one of {', '.join(CATALOG_NAMES)})")
    params = named_params(cfg.name, cfg.r, cfg.seed)
    checks = list(catalog_campaign(params, cfg.samples, cfg.seed, tol=cfg.tol).checks)
    if cfg.name == "upsilon":
        _, closed_form = rank_one_build(params)
        pts = sample_rG(min(cfg.samples, 200), cfg.r, cfg.seed + 1)
        gap = np.abs(closed_form(pts) - upsilon(params.omega1, cfg.r, pts))
        checks.append(Check("upsilon_identity", float(np.max(gap, initial=0.0)), 1e-12))
    return checks, cfg.samples


def cmd_sample(cfg: RunConfig) -> tuple[Sequence[Check], int]:
    pts = sample_rG(cfg.samples, cfg.r, cfg.seed)
    bad = outside_points(pts, cfg.r)
    checks = [Check("membership", float(len(bad)), 0.0)]
    if cfg.output_path is not None:
        jsonio.dump_json(jsonio.matrix_to_json(pts), cfg.output_path)
    return checks, cfg.samples


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


# The flags each command reads; argparse refuses the others with exit status 2.
_FLAGS = {
    "validate": ("input", "tol"),
    "certify": ("input", "samples", "seed", "tol"),
    "synthesize": ("input", "output", "seed", "tol"),
    "kernel-check": ("dims", "r", "samples", "seed", "tol"),
    "catalog": ("name", "r", "samples", "seed", "tol"),
    "sample": ("r", "samples", "seed", "output"),
}
_FLAG_OPTIONS = {
    "input": {"dest": "input_path"},
    "output": {"dest": "output_path"},
    "name": {},
    "dims": {},
    "r": {"type": float},
    "samples": {"type": int},
    "seed": {"type": int},
    "tol": {"type": float},
}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser.  Flags left out keep the defaults of :class:`RunConfig`."""
    parser = argparse.ArgumentParser(
        prog="skewbidisc",
        description="Verification campaigns for Schur-class functions on the symmetrized skew bidisc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _FLAGS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAG_OPTIONS[flag])
    sub.choices["certify"].set_defaults(tol=CERTIFY_TOL)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv: Sequence[str] | None = None) -> int:
    args = vars(_parser().parse_args(argv))
    command = args.pop("command")
    started = time.perf_counter()
    try:
        if "dims" in args:
            args["dims"] = _parse_dims(args["dims"])
        cfg = RunConfig(**args)
        checks, sample_count = _COMMANDS[command](cfg)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SkewBidiscError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    report = ValidationReport(tuple(checks))
    print(json.dumps(dict(
        command=command, passed=report.passed, max_residual=report.max_residual,
        checks=report.checks, seed=cfg.seed, sample_count=sample_count,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    ), indent=2))
    return 0 if report.passed else 1


def main() -> None:
    raise SystemExit(run())
