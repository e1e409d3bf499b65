"""One measured stublint invocation in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC names the mode ("plain": one `stublint.cli.main(argv)` call; "traced":
one replay of it through `spans.traced_main`), the argv or replay options,
and the file that receives the text findings.  stublint is imported before
anything is timed, so the timed call pays no import.  During the call a
timer signal runs the fixed kernel of `speed.py`, which measures how fast
the machine runs meanwhile.

The last line of stdout is one JSON object: exit code, wall time, the
duration of every kernel tick and, when traced, the per-layer metrics.
stublint's own output goes to the findings file, not to stdout.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import traceback
from time import perf_counter

import spans
from speed import Speedometer
from stublint.cli import main as stublint_main


def run_plain(spec: dict) -> tuple[int, str, spans.Tracer | None]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = stublint_main(spec["argv"])
    return code, out.getvalue(), None


def run_traced(spec: dict) -> tuple[int, str, spans.Tracer | None]:
    tracer = spans.Tracer()
    text = spans.traced_main(tracer, **spec["replay"])
    return 0, text, tracer


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    runner = run_traced if spec["mode"] == "traced" else run_plain
    gc.collect()
    try:
        with Speedometer() as speed:
            start = perf_counter()
            code, text, tracer = runner(spec)
            wall = perf_counter() - start
    except Exception:  # reported as a failed invocation, not a crash
        traceback.print_exc()
        print(json.dumps({"code": None}))
        return 0
    with open(spec["findings"], "w", encoding="utf-8") as handle:
        handle.write(text)
    result = {"code": code, "wall": wall, "ticks": speed.ticks, "metrics": {}}
    if tracer is not None:
        result["metrics"] = spans.layer_metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
