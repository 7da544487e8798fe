"""Per-layer metrics from the spans of one traced iteration.

A span's self time is its duration minus the durations of its direct
children; the CLI is single-threaded, so children never overlap.
"""

from collections import defaultdict

import numpy as np

# name -> (unit, better); the order is the order of the printed table
METRICS = {
    "varx.bootstrap_bands.s": ("s", "lower"),
    "varx.bootstrap_bands.self_s": ("s", "lower"),
    "varx.bootstrap.reps_per_s": ("1/s", "higher"),
    "varx.bootstrap.reps_ok_ratio": ("ratio", "higher"),
    "varx.estimate.calls": ("count", "lower"),
    "varx.estimate.s": ("s", "lower"),
    "varx.estimate.median_us": ("us", "lower"),
    "varx.estimate.p99_us": ("us", "lower"),
    "varx.build_design.calls": ("count", "lower"),
    "varx.build_design.s": ("s", "lower"),
    "varx.dynamic_multipliers.calls": ("count", "lower"),
    "varx.dynamic_multipliers.s": ("s", "lower"),
    "varx.write_irf_csv.s": ("s", "lower"),
    "panel.compute_series.s": ("s", "lower"),
    "panel.compute_series.self_s": ("s", "lower"),
    "panel.compute_series.quarters_per_s": ("1/s", "higher"),
    "theil.decompose.calls": ("count", "lower"),
    "theil.decompose.s": ("s", "lower"),
    "theil.theil_index.calls": ("count", "lower"),
    "panel.parse_wage_csv.s": ("s", "lower"),
    "panel.parse_wage_csv.rows_per_s": ("1/s", "higher"),
    "panel.parse_shock_csv.calls": ("count", "lower"),
    "panel.parse_shock_csv.s": ("s", "lower"),
    "panel.write_series_csv.s": ("s", "lower"),
    "panel.write_growth_csv.s": ("s", "lower"),
    "panel.growth_rates.s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.run_irf.self_s": ("s", "lower"),
    "cli.run_decompose.self_s": ("s", "lower"),
    "cli.run_growth.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class SpanTable:
    """Durations, self times and parent links of the spans of one iteration."""

    def __init__(self, traces):
        self.spans = []  # (name, parent index or -1, duration), over all traces
        for trace in traces:
            base = len(self.spans)
            for name, parent, start, end in trace["spans"]:
                self.spans.append((name, base + parent if parent >= 0 else -1, end - start))
        self.import_s = [trace["import_s"] for trace in traces]
        self.dur = defaultdict(list)
        self.self_time = defaultdict(float)
        self.kids = defaultdict(int)  # (parent index, child name) -> count
        child_time = [0.0] * len(self.spans)
        for name, parent, dur in self.spans:
            if parent >= 0:
                child_time[parent] += dur
                self.kids[(parent, name)] += 1
        for (name, _, dur), inner in zip(self.spans, child_time):
            self.dur[name].append(dur)
            self.self_time[name] += dur - inner

    def calls(self, name):
        return len(self.dur[name])

    def total(self, name):
        return float(sum(self.dur[name]))

    def children_per_span(self, parent, child):
        """Count of ``child`` spans directly under each ``parent`` span."""
        return [self.kids[(i, child)] for i, (name, _, _) in enumerate(self.spans) if name == parent]


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def iteration_metrics(traces, workload):
    """Per-layer metrics of one traced iteration (all but the overhead ratio)."""
    t = SpanTable(traces)
    m = {}
    for name in ("varx.bootstrap_bands", "panel.compute_series"):
        m[f"{name}.s"] = t.total(name)
        m[f"{name}.self_s"] = t.self_time[name]
    reps = workload.reps * t.calls("varx.bootstrap_bands")
    m["varx.bootstrap.reps_per_s"] = _rate(reps, t.total("varx.bootstrap_bands"))
    # each bootstrap_bands call computes the point multipliers once, then
    # once per replication whose re-estimation succeeded
    ok = sum(n - 1 for n in t.children_per_span("varx.bootstrap_bands", "varx.dynamic_multipliers"))
    m["varx.bootstrap.reps_ok_ratio"] = ok / reps if reps else 0.0
    est = np.array(t.dur["varx.estimate"]) * 1e6
    m["varx.estimate.median_us"] = float(np.median(est)) if est.size else 0.0
    m["varx.estimate.p99_us"] = float(np.percentile(est, 99)) if est.size else 0.0
    for name in ("varx.estimate", "varx.build_design", "varx.dynamic_multipliers",
                 "theil.decompose", "panel.parse_shock_csv"):
        m[f"{name}.calls"] = t.calls(name)
        m[f"{name}.s"] = t.total(name)
    m["theil.theil_index.calls"] = t.calls("theil.theil_index")
    for name in ("varx.write_irf_csv", "panel.parse_wage_csv", "panel.write_series_csv",
                 "panel.write_growth_csv", "panel.growth_rates"):
        m[f"{name}.s"] = t.total(name)
    quarters = sum(t.children_per_span("panel.compute_series", "theil.decompose"))
    m["panel.compute_series.quarters_per_s"] = _rate(quarters, m["panel.compute_series.s"])
    rows = workload.wage_rows * t.calls("panel.parse_wage_csv")
    m["panel.parse_wage_csv.rows_per_s"] = _rate(rows, m["panel.parse_wage_csv.s"])
    m["cli.import_s"] = float(np.mean(t.import_s))
    for name in ("cli.run_irf", "cli.run_decompose", "cli.run_growth"):
        m[f"{name}.self_s"] = t.self_time[name]
    return m


def self_time_ranking(traces):
    """(span name, calls, total s, self s) sorted by self time, largest first."""
    t = SpanTable(traces)
    rows = [(name, t.calls(name), t.total(name), t.self_time[name]) for name in t.dur]
    return sorted(rows, key=lambda r: -r[3])
