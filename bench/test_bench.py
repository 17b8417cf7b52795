"""Smoke test of the benchmark itself.

Run from the root of the repository with ``python3 -m pytest bench -q``.
Each workload runs for one input cycle, untraced and traced, on two seeds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import metrics
import run
import workloads

ROOT = Path(run.__file__).resolve().parent.parent
SEEDS = (3, 4)
EXACT_COUNTS = {
    "certify-d5": ("colligation.s_UR.calls", 6200),
    "kernel-d16": ("kernels.kernel_Y.calls", 1200),
    "synthesize-d12": ("kernels.bidisc_model_residual.calls", 4096),
}


@lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.per_layer_units()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_its_unit(workload, trace):
    expected = (
        metrics.per_layer_units() if trace
        else {name: unit for name, unit, _ in metrics.END_TO_END}
    )
    for seed in SEEDS:
        result = bench(workload, seed, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in bench(workload, SEEDS[0], 0)["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counts_repeat_across_seeds(workload):
    a, b = (bench(workload, seed, 1)["metrics"] for seed in SEEDS)
    counts = [k for k, v in a.items() if v["unit"] in ("count", "calls/point")]
    assert counts
    assert {k: a[k]["value"] for k in counts} == {k: b[k]["value"] for k in counts}


@pytest.mark.parametrize("workload", sorted(EXACT_COUNTS))
def test_exact_call_counts_per_campaign(workload):
    name, expected = EXACT_COUNTS[workload]
    for seed in SEEDS:
        assert bench(workload, seed, 1)["metrics"][name]["value"] == expected


def test_tracer_rebinds_imported_names_and_restores_them():
    from tracer import Tracer

    run._prepare_imports()
    from skewbidisc import cli, colligation, realization

    original = colligation.s_UR
    command = cli._COMMANDS["certify"]
    with Tracer():
        assert realization.s_UR is colligation.s_UR is not original
        assert cli._COMMANDS["certify"] is not command
    assert realization.s_UR is colligation.s_UR is original
    assert cli._COMMANDS["certify"] is command


def test_spans_give_self_time_and_errors():
    from tracer import Tracer

    run._prepare_imports()
    from skewbidisc import colligation, errors

    r_op = colligation.build_R(colligation.SubspaceSplit(1, 1), 0.5)
    tracer = Tracer()
    with tracer:
        tracer.campaign_id = 0
        with pytest.raises(errors.OutsideDomain):
            colligation.s_UR((3.0, 0.0), np.eye(2), r_op)
        tracer.campaign_id = -1
    spans = tracer.table()
    by_name = {spans.names[n]: i for i, n in enumerate(spans.name)}
    outer, inner = by_name["colligation.s_UR"], by_name["domains.in_rG"]
    assert spans.parent[inner] == outer and spans.parent[outer] == -1
    assert spans.error[outer] == 1 and spans.error[inner] == 0
    self_s = spans.self_seconds()
    children = spans.parent == outer
    own = (spans.end - spans.start)[outer] - (spans.end - spans.start)[children].sum()
    assert self_s[outer] == pytest.approx(own)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog-d2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
