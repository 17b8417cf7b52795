"""The benchmark's metrics: names, units, and how they are computed.

End-to-end metrics come from untraced runs.  Per-layer metrics come from a
traced run and are normalised per campaign (or per call for the
``_us_per_call`` ones), so the run length does not change them.  Layers are
the package's modules; which end-to-end metric each per-layer metric
should move, and on which workload, is written down in ``README.md``.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import MODULES, SpanTable

END_TO_END = (
    ("campaigns_per_s", "1/s", "higher"),
    ("campaign_ms.p50", "ms", "lower"),
    ("campaign_ms.p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

UNITS = {
    "calls": "count",
    "errors": "count",
    "self_ms": "ms",
    "self_us_per_call": "us",
    "calls_per_point": "calls/point",
}

FUNCTION_METRICS = (
    "colligation.s_UR.calls",
    "colligation.s_UR.calls_per_point",
    "colligation.s_UR.self_us_per_call",
    "linalg.inverse.calls",
    "linalg.inverse.self_us_per_call",
    "realization.eval_f.calls",
    "realization.eval_u.calls",
    "realization.model_residual.calls",
    "realization.model_residual.self_ms",
    "kernels.kernel_Y.calls",
    "kernels.kernel_Y.self_us_per_call",
    "kernels.kernel_Z.self_us_per_call",
    "linalg.spectral_norm.calls",
    "linalg.spectral_norm.self_ms",
    "kernels.bidisc_model_residual.calls",
    "synthesis.PolyVectorMap.eval.calls",
    "synthesis.synthesize.self_ms",
    "realization.realization_from_model.self_ms",
    "linalg.isometry_from_gramians.self_ms",
    "linalg.unitary_extension.self_ms",
    "domains.sample_rG.self_ms",
    "domains.in_rG.calls_per_point",
    "domains.quad_roots.calls",
    "catalog.catalog_campaign.self_ms",
    "catalog.closed_form.calls",
    "domains.mobius_phi.calls",
    "jsonio.load_json.self_ms",
    "jsonio.colligation_from_json.self_ms",
    "jsonio.dump_json.self_ms",
)

OVERHEAD = ("trace.overhead_frac", "frac")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module in MODULES:
        for kind in ("calls", "self_ms", "errors"):
            units[f"{module}.{kind}"] = UNITS[kind]
    for name in FUNCTION_METRICS:
        units[name] = UNITS[name.rsplit(".", 1)[1]]
    units[OVERHEAD[0]] = OVERHEAD[1]
    return units


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as ``statistics.quantiles`` does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(durations: list[float], passed: list[bool], setup_s: float,
               peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics from the timed campaigns of one untraced run.

    ``campaigns_per_s`` is passed campaigns over the seconds all campaigns
    took, so a campaign that fails the gate costs its time and counts for
    nothing.  Campaign times on a shared host fall into a fast and a slow
    mode; this mean moves in proportion to the share of slow campaigns,
    where a median of slices jumps between the modes.
    """
    ms = [d * 1000.0 for d in durations]
    return {
        "campaigns_per_s": sum(passed) / sum(durations),
        "campaign_ms.p50": statistics.median(ms),
        "campaign_ms.p90": quantile(ms, 90),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(spans: SpanTable, campaigns: int, points: int,
              overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics, per campaign, from the spans of ``campaigns`` traced campaigns."""
    self_s = spans.self_seconds()
    calls: dict[str, float] = {}
    self_total: dict[str, float] = {}
    errors: dict[str, float] = {}
    for i, name in enumerate(spans.names):
        mask = spans.name == i
        calls[name] = float(np.count_nonzero(mask))
        self_total[name] = float(self_s[mask].sum())
        errors[name] = float(spans.error[mask].sum())

    def total(table: dict[str, float], prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    out: dict[str, float] = {}
    for module in MODULES:
        out[f"{module}.calls"] = total(calls, module + ".") / campaigns
        out[f"{module}.self_ms"] = total(self_total, module + ".") * 1000.0 / campaigns
        out[f"{module}.errors"] = total(errors, module + ".") / campaigns
    for metric in FUNCTION_METRICS:
        fn, kind = metric.rsplit(".", 1)
        n = calls.get(fn, 0.0)
        if kind == "calls":
            value = n / campaigns
        elif kind == "self_ms":
            value = self_total.get(fn, 0.0) * 1000.0 / campaigns
        elif kind == "self_us_per_call":
            value = self_total.get(fn, 0.0) * 1e6 / n if n else 0.0
        else:  # calls_per_point
            value = n / points if points else 0.0
        out[metric] = value
    out[OVERHEAD[0]] = overhead_frac
    return out
