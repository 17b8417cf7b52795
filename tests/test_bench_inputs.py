"""The benchmark's set-up and first campaigns, as a tier-1 test.

``bench/workloads.py`` builds the campaign inputs with the library's own
samplers (``synthesize-d12`` concatenates the lists of two of them), so a
change to what a sampler returns can break every benchmark run before its
first campaign.  This test loads that file without changing anything under
``bench/``, writes each workload's inputs and passes one input cycle of
campaigns through ``cli.run`` and the benchmark's correctness gate.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from skewbidisc import cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()


def test_the_four_workloads_are_covered():
    assert sorted(workloads.WORKLOADS) == ["catalog-d2", "certify-d5", "kernel-d16", "synthesize-d12"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_sets_up_and_passes_its_first_cycle(name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]
    campaigns = workloads.generate(workload, tmp_path, seed=1)
    assert len(campaigns) == workloads.POOL
    for campaign in campaigns[: workload.cycle]:
        code = cli.run(list(campaign.argv))
        report = json.loads(capsys.readouterr().out)
        assert workloads.gate(campaign, code, report) is None
