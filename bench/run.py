"""Run one skewbidisc benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload certify-d5 --seed 1 --seconds 28 --trace 0

Each workload is a closed loop of CLI campaigns run in-process through
``skewbidisc.cli.run`` on one thread.  The inputs are generated from
``--seed`` at set-up, which is repeated in fresh interpreters and timed.
After a warm-up the loop runs campaigns for ``--seconds`` and checks every
report with the correctness gate in ``workloads.py``.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it spends half the time untraced and half traced, and reports
the per-layer metrics derived from the spans.  Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

# One client on one thread: BLAS gets one thread too, set before numpy loads.
BLAS_THREADS = "1"
SETUP_REPEATS = 5


def _prepare_imports() -> None:
    if not (SRC / "skewbidisc" / "__init__.py").is_file():
        raise SystemExit(f"error: no skewbidisc sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _import_package():
    import skewbidisc

    where = Path(skewbidisc.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: skewbidisc imported from {where}, not from {SRC}")
    return skewbidisc


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, when numpy ships scipy-openblas."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    try:
        fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    fn.restype = ctypes.c_int
    return int(fn())


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def setup_child(workload_name: str, seed: int, workdir: Path, started: float) -> None:
    """Import the package and write a workload's inputs; print the seconds since ``started``."""
    _import_package()
    import workloads

    campaigns = workloads.generate(workloads.WORKLOADS[workload_name], workdir, seed)
    manifest = [[c.index, list(c.argv), c.sample_count, c.output] for c in campaigns]
    (workdir / "manifest.json").write_text(json.dumps(manifest))
    print(json.dumps({"setup_s": time.perf_counter() - started}))


def _digest(workdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def timed_setups(workload_name: str, seed: int, rundir: Path) -> tuple[float, Path]:
    """Set up ``SETUP_REPEATS`` times in fresh interpreters; median seconds and one input dir.

    Every set-up must write byte-identical inputs.
    """
    times, digests = [], set()
    workdir = rundir / "inputs"
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-into", str(workdir),
             "--workload", workload_name, "--seed", str(seed), "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        digests.add(_digest(workdir))
    if len(digests) != 1:
        raise RuntimeError("set-ups from one seed wrote different inputs")
    return statistics.median(times), workdir


class Client:
    """Feeds campaigns to ``cli.run`` one at a time and gates every report."""

    def __init__(self, workload, seed: int, workdir: Path):
        import workloads
        from skewbidisc import cli

        self.workloads = workloads
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        manifest = json.loads((workdir / "manifest.json").read_text())
        self.pool = [workloads.Campaign(i, tuple(argv), n, out) for i, argv, n, out in manifest]
        self.next_index = 0
        self.attempted = 0
        self.failures: list[str] = []

    def campaign(self, index: int):
        if index < len(self.pool):
            return self.pool[index]
        return self.workload.campaign(self.workdir, self.seed, index)

    def run_one(self, tracer=None) -> tuple[float, bool]:
        """Run the next campaign; its wall seconds and whether it passed the gate."""
        c = self.campaign(self.next_index)
        self.next_index += 1
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        reason = None
        if tracer is not None:
            tracer.campaign_id = c.index
        started = time.perf_counter()
        try:
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.run(list(c.argv))
            finally:
                seconds = time.perf_counter() - started
                if tracer is not None:
                    tracer.campaign_id = -1
            text = out.getvalue()
            reason = self.workloads.gate(c, code, json.loads(text) if text else None)
        except Exception:  # a crash is one failed campaign, not a failed run
            reason = traceback.format_exc()
        finally:
            if c.output is not None:
                Path(c.output).unlink(missing_ok=True)
        if reason is not None:
            self.failures.append(f"campaign {c.index} {' '.join(c.argv)}: {reason} {err.getvalue()}")
        return seconds, reason is None

    def run_cycles(self, seconds: float, tracer=None) -> tuple[list[float], list[bool]]:
        """Whole input cycles until ``seconds`` have passed (at least one cycle)."""
        durations, passed = [], []
        deadline = time.perf_counter() + seconds
        while True:
            for _ in range(self.workload.cycle):
                d, ok = self.run_one(tracer)
                durations.append(d)
                passed.append(ok)
            if time.perf_counter() >= deadline:
                return durations, passed


def _print_table(rows: dict[str, float], units: dict[str, str]) -> None:
    for name, value in rows.items():
        print(f"{name:48s} {value:>16.6g} {units[name]}")


def run(args) -> int:
    _prepare_imports()
    skewbidisc = _import_package()
    import metrics
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    rundir = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        setup_s, inputs = timed_setups(workload.name, args.seed, rundir)
        client = Client(workload, args.seed, inputs)
        info = machine()
        print(f"workload {workload.name}  seed {args.seed}  skewbidisc {skewbidisc.__version__}")
        print("machine " + json.dumps(info))
        client.run_cycles(0.0)
        if args.trace:
            values, units = traced_run(client, args.seconds)
        else:
            durations, passed = client.run_cycles(args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = metrics.end_to_end(durations, passed, setup_s, rss_mb)
            units = {name: unit for name, unit, _ in metrics.END_TO_END}
            print(f"campaigns timed {len(durations)} after {client.attempted - len(durations)} warm-up")
        _print_table(values, units)
        fail_frac = len(client.failures) / client.attempted
        print(f"{'fail_frac':48s} {fail_frac:>16.6g} failed/attempted")
        for failure in client.failures:
            print("FAILED " + failure, file=sys.stderr)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(client: Client, seconds: float) -> tuple[dict[str, float], dict[str, str]]:
    """Half the time untraced, half traced; per-layer metrics from the traced half."""
    import metrics
    from tracer import Tracer

    untraced, _ = client.run_cycles(seconds / 2.0)
    tracer = Tracer()
    first = client.next_index
    with tracer:
        traced, _ = client.run_cycles(seconds / 2.0, tracer)
    spans = tracer.table()
    spans.save(WORK / f"trace-{client.workload.name}.npz")
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    values = metrics.per_layer(spans, client.next_index - first,
                               sum(tracer.points.values()), overhead)
    print(f"campaigns traced {len(traced)}, untraced {len(untraced)}, spans {len(spans.name)}")
    return values, metrics.per_layer_units()


def main(argv=None) -> int:
    started = time.perf_counter()
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-into", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_into is not None:
        _prepare_imports()
        setup_child(args.workload, args.seed, args.setup_into, started)
        return 0
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
