"""Names and units of the benchmark's metrics, and the per-run summary of
the traced replays.  Kept free of stublint imports: the parent process of a
benchmark run never imports stublint."""

from __future__ import annotations

import statistics

END_TO_END_UNITS = {
    "wall_s": "s",
    "lines_per_s": "lines/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# span name -> metric of its summed duration
TIMED_LAYERS = {
    "c_frontend.preprocess": "c_frontend.preprocess_s",
    "c_frontend.lex": "c_frontend.lex_s",
    "c_frontend.cfg": "c_frontend.cfg_s",
    "lock_analysis.solve": "lock_analysis.solve_s",
    "lock_analysis.collect": "lock_analysis.collect_s",
    "value_safety.track": "value_safety.track_s",
    "value_safety.check": "value_safety.check_s",
    "naked_const.solve": "naked_const.solve_s",
    "naked_const.check": "naked_const.check_s",
    "diagnostics.normalize": "diagnostics.normalize_s",
    "diagnostics.render": "diagnostics.render_s",
    "sarif.emit": "sarif.emit_s",
    "ml_frontend.parse": "ml_frontend.parse_s",
    "header_gen.render": "header_gen.render_s",
    "harness_gen.render": "harness_gen.render_s",
    "cli.check_arity": "cli.check_arity_s",
}

# name -> unit of every metric `spans.layer_metrics` returns, plus the two
# that `summarize` adds.
PER_LAYER_UNITS = {
    **{metric: "s" for metric in TIMED_LAYERS.values()},
    "c_frontend.parse_s": "s",
    "cli.driver_self_s": "s",
    "trace.wall_s": "s",
    "analyze.fn_p50_ms": "ms",
    "analyze.fn_p99_ms": "ms",
    "analyze.fn_samples": "count",
    "c_frontend.tokens": "count",
    "c_frontend.functions": "count",
    "c_frontend.unsupported": "count",
    "c_frontend.cfg_nodes": "count",
    "lock_analysis.pops_per_node": "ratio",
    "value_safety.events": "count",
    "diagnostics.findings": "count",
    "diagnostics.kept_ratio": "ratio",
    "sarif.bytes": "bytes",
    "ml_frontend.externals": "count",
    "trace.overhead_ratio": "ratio",
    "trace.replays": "count",
}


def summarize(replays: list[dict], traced: list[float], plain: list[float]) -> dict:
    """Median of every per-layer metric over the replays of one run, plus
    the tracing overhead: traced over plain wall time, both medians."""
    out = {
        name: statistics.median(r[name] for r in replays) for name in replays[0]
    }
    out["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    out["trace.replays"] = len(replays)
    return out
