"""Traced replay of one `stublint.cli.main` invocation.

`traced_main` calls each layer's public function in the order `cli.run`,
`cli.analyze_unit` and `cli.main` call them, and wraps every call in a span
(name, start, end, parent).  Whatever runs outside a layer span (file reads,
summary-table copies, writing outputs, loop overhead) is the driver's own
time.  The driver's own helpers (`cli._read`, `cli._load_table`,
`cli._unit_table`, `cli._write_output`) are called as they are, so that part
is the driver's code too.  `layer_metrics` turns the spans and counters of
one replay into the per-layer metrics.  stublint itself is not modified: the
spans are taken here, around the calls into it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from metrics import TIMED_LAYERS
from stublint import cli, harness_gen, header_gen, ml_frontend
from stublint.c_frontend import build_cfg, lex, parse_unit, preprocess_local
from stublint.diagnostics import WARNING, Diagnostic, normalize
from stublint.lock_analysis import collect_lock_diagnostics, solve
from stublint.naked_const import check_naked, solve_consts
from stublint.sarif import emit_sarif
from stublint.value_safety import check_camlparam, check_deref_safety, track_values

ROOT = "cli.main"
FUNCTION = "analyze.fn"  # groups the layer spans of one function


class Tracer:
    """Spans of one invocation, kept in memory: [name, start, end, parent],
    where parent is the index of the enclosing span (-1 for the root)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open = [-1]

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, amount: int):
        self.counts[name] = self.counts.get(name, 0) + amount


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, perf_counter(), 0.0, tracer._open[-1]])
        tracer._open.append(self.index)

    def __exit__(self, *exc):
        self.tracer._open.pop()
        self.tracer.spans[self.index][2] = perf_counter()


def _analyze_unit(tr: Tracer, unit, base_table) -> list:
    table = cli._unit_table(unit, base_table)
    diags = list(unit.diagnostics)
    for fn in unit.functions:
        with tr.span(FUNCTION):
            with tr.span("c_frontend.cfg"):
                cfg = build_cfg(fn, is_noreturn=table.noreturn)
            with tr.span("lock_analysis.solve"):
                lockmap = solve(cfg, table)
            with tr.span("lock_analysis.collect"):
                diags.extend(collect_lock_diagnostics(cfg, lockmap, table))
            with tr.span("value_safety.track"):
                _facts, events, notes = track_values(cfg, lockmap, table)
            with tr.span("value_safety.check"):
                diags.extend(check_deref_safety(events, lockmap))
            diags.extend(notes)
            with tr.span("value_safety.check"):
                diags.extend(check_camlparam(fn))
            with tr.span("naked_const.solve"):
                env_map = solve_consts(cfg)
            with tr.span("naked_const.check"):
                diags.extend(check_naked(cfg, env_map))
        tr.count("c_frontend.cfg_nodes", len(cfg.nodes))
        tr.count("lock_analysis.pops", lockmap.pops)
        tr.count("value_safety.events", len(events))
    return diags


def traced_main(
    tr: Tracer,
    paths: list[str],
    summaries: str | None,
    sarif: str,
    header_out: str | None,
    harness_out: str | None,
) -> str:
    """Replay `cli.main` on these options; return the text it would print.
    The SARIF, header and harness files are written as `main` writes them."""
    with tr.span(ROOT):
        ml_paths = [p for p in paths if p.endswith(".ml")]
        c_paths = [p for p in paths if p.endswith(".c")]
        table = cli._load_table(summaries)

        diags = []
        decls = []
        for path in ml_paths:
            text = cli._read(path)
            with tr.span("ml_frontend.parse"):
                found, errors = ml_frontend.parse_ml_externals(text, path)
            decls.extend(found)
            diags.extend(
                Diagnostic(
                    "UNSUPPORTED_CONSTRUCT",
                    WARNING,
                    err.file,
                    err.line,
                    err.column,
                    f"external declaration skipped: {err.message}",
                )
                for err in errors
            )
        tr.count("ml_frontend.externals", len(decls))

        if header_out is not None:
            with tr.span("header_gen.render"):
                header = header_gen.render_header(decls)
            cli._write_output(header_out, header)
        if harness_out is not None:
            with tr.span("harness_gen.render"):
                harness = harness_gen.generate_main(decls)
            cli._write_output(harness_out, harness)

        units = []
        for path in c_paths:
            text = cli._read(path)
            with tr.span("c_frontend.preprocess"):
                pre = preprocess_local(text, path)
            diags.extend(pre.notes)
            # parse_unit lexes internally; lexing the same text once more
            # on its own separates lex time from parse time.
            with tr.span("c_frontend.lex"):
                tokens = lex(pre.text)
            with tr.span("c_frontend.parse_unit"):
                unit = parse_unit(pre.text, path)
            units.append(unit)
            tr.count("c_frontend.tokens", len(tokens))
            tr.count("c_frontend.functions", len(unit.functions))
            tr.count(
                "c_frontend.unsupported",
                sum(
                    d.rule_id == "UNSUPPORTED_CONSTRUCT"
                    for d in (*pre.notes, *unit.diagnostics)
                ),
            )

        for unit in units:
            diags.extend(_analyze_unit(tr, unit, table))
        with tr.span("cli.check_arity"):
            diags.extend(cli.check_arity(decls, units))

        tr.count("diagnostics.raw", len(diags))
        with tr.span("diagnostics.normalize"):
            diags = normalize(diags)
        tr.count("diagnostics.findings", len(diags))

        with tr.span("sarif.emit"):
            log = emit_sarif(diags)
        cli._write_output(sarif, log)
        tr.count("sarif.bytes", len(log.encode("utf-8")))

        with tr.span("diagnostics.render"):
            text = "".join(diag.render() + "\n" for diag in diags)
    return text


# -- metrics -------------------------------------------------------------------


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced replay."""
    totals = dict.fromkeys([*TIMED_LAYERS, "c_frontend.parse_unit"], 0.0)
    per_function = []
    wall = 0.0
    for name, start, end, _parent in tr.spans:
        if name == ROOT:
            wall = end - start
        elif name == FUNCTION:
            per_function.append((end - start) * 1e3)
        else:
            totals[name] += end - start
    metrics = {TIMED_LAYERS[name]: totals[name] for name in TIMED_LAYERS}
    metrics["c_frontend.parse_s"] = (
        totals["c_frontend.parse_unit"] - totals["c_frontend.lex"]
    )
    # Layer spans never nest in one another, so what they leave uncovered
    # of the root span is the driver's own time.
    metrics["cli.driver_self_s"] = wall - sum(totals.values())
    metrics["trace.wall_s"] = wall
    metrics["analyze.fn_p50_ms"] = _percentile(per_function, 50)
    metrics["analyze.fn_p99_ms"] = _percentile(per_function, 99)
    metrics["analyze.fn_samples"] = len(per_function)
    counts = tr.counts
    for name in (
        "c_frontend.tokens",
        "c_frontend.functions",
        "c_frontend.unsupported",
        "c_frontend.cfg_nodes",
        "value_safety.events",
        "diagnostics.findings",
        "sarif.bytes",
        "ml_frontend.externals",
    ):
        metrics[name] = counts.get(name, 0)
    metrics["lock_analysis.pops_per_node"] = (
        counts["lock_analysis.pops"] / counts["c_frontend.cfg_nodes"]
    )
    metrics["diagnostics.kept_ratio"] = (
        counts["diagnostics.findings"] / counts["diagnostics.raw"]
        if counts["diagnostics.raw"]
        else 1.0
    )
    return metrics
