"""stublint benchmark: time to verdict on the parity, synth and corpus
workloads, with a traced per-layer breakdown.

    python3 perfbench/run.py --workload parity|synth|corpus|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a stublint checkout; stublint is imported from
`src/`.  The workload is generated from the seed into a scratch directory
under `.perfbench_work/`, which is removed afterwards.  Every stublint
invocation runs in a fresh child interpreter (`child.py`), one after the
other, for about S seconds (at least MIN_SAMPLES plain invocations with
--trace 0, one plain and one traced with --trace 1).

--trace 0 reports the end-to-end metrics; --trace 1 alternates plain and
traced invocations and reports the per-layer metrics.  Both check every
invocation's findings against the workload's oracle, and that all of them
wrote the same SARIF, header and harness.  Human-readable lines come first;
the last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_SAMPLES = 3
SETUP_RUNS = 15
CHILD_TIMEOUT_S = 60.0

SETUP_CODE = """\
import sys
import stublint.cli
from stublint.lock_analysis import load_summaries
path = sys.argv[1]
if path:
    with open(path, encoding="utf-8") as handle:
        load_summaries(handle.read())
else:
    load_summaries(None)
"""

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from metrics import END_TO_END_UNITS, PER_LAYER_UNITS, summarize  # noqa: E402
from speed import CALL_EXPONENT, SPAWN_EXPONENT, kernel, to_reference  # noqa: E402


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed invocation)."""


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed)  # set iteration order repeats per seed
    return env


def run_child(cmd: list[str], env: dict, work: str) -> tuple[int, str, float]:
    """Run one child to completion; return (exit code, stdout, peak RSS MiB).
    os.wait4 returns as soon as the child ends, with its own rusage; a timer
    kills a child that outlives CHILD_TIMEOUT_S."""
    err_path = os.path.join(work, "child.err")
    with open(err_path, "wb") as err, tempfile.TemporaryFile(dir=work) as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        sys.stderr.write(handle.read())
    return proc.returncode, stdout, usage.ru_maxrss / 1024.0


def measure_setup(workload, work: str, env: dict) -> tuple[list[float], list[list[float]]]:
    """SETUP_RUNS fresh interpreters that import stublint.cli and load the
    summaries.  Returns their wall times and the kernel ticks taken before
    the first, between each two and after the last: spawn i lies between
    ticks[i] and ticks[i + 1]."""
    summaries = workload.option("--summaries")
    arg = os.path.join(work, summaries) if summaries else ""
    cmd = [sys.executable, "-c", SETUP_CODE, arg]
    times, ticks = [], [[kernel() for _ in range(3)]]
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        code, _out, _rss = run_child(cmd, env, work)
        times.append(time.perf_counter() - start)
        ticks.append([kernel() for _ in range(3)])
        if code != 0:
            raise BenchError(f"importing stublint failed (exit {code})")
    return times, ticks


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def check_sarif(path: str, work: str, found: set) -> list[str]:
    """The SARIF log must carry the same findings as the text output."""
    with open(path, encoding="utf-8") as handle:
        log = json.load(handle)
    prefix = os.path.join(work, "")
    in_log = set()
    for result in log["runs"][0]["results"]:
        if result["level"] == "note":
            continue
        region = result["locations"][0]["physicalLocation"]
        uri = region["artifactLocation"]["uri"]
        if uri.startswith(prefix):
            uri = uri[len(prefix):]
        in_log.add((result["ruleId"], uri, region["region"]["startLine"]))
    if in_log != found:
        return [f"SARIF and text findings differ by {len(in_log ^ found)}"]
    return []


def check_generated(workload, header: str, harness: str) -> list[str]:
    """Every external gets its prototype in the header and a caller in the
    harness (bytecode prototypes: arity values, all boxed)."""
    with open(header, encoding="utf-8") as handle:
        header_lines = set(handle.read().splitlines())
    with open(harness, encoding="utf-8") as handle:
        harness_text = handle.read()
    problems = []
    for symbol, arity in workload.symbols.items():
        params = ", ".join(f"value arg{i + 1}" for i in range(arity))
        if f"CAMLprim value {symbol}({params});" not in header_lines:
            problems.append(f"header lacks the prototype of {symbol}")
        if f"__caller_{symbol}(" not in harness_text:
            problems.append(f"harness lacks a caller of {symbol}")
    return problems


def call_rows(prefix: str, calls: list[dict]) -> list[tuple[str, list]]:
    """Sampled quantities of these invocations, for the human report."""
    ticks = [statistics.mean(r["ticks"]) * 1e3 for r in calls if r["ticks"]]
    return [
        (prefix + "wall_s", [r["scaled"] for r in calls]),
        (prefix + "wall_raw_s", [r["wall"] for r in calls]),
        (prefix + "tick_ms", ticks),
        (prefix + "peak_rss_mb", [r["rss"] for r in calls]),
    ]


class Run:
    """State of one benchmark run on one workload."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.workload = workloads.GENERATORS[name](seed)
        self.seed = seed
        self.seconds = seconds
        self.env = child_env(seed)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def options(self, flag: str) -> str | None:
        rel = self.workload.option(flag)
        return os.path.join(self.work, rel) if rel else None

    def invoke(self, mode: str) -> dict | None:
        """One invocation in a fresh child; verifies its outputs."""
        findings = os.path.join(self.work, "findings.txt")
        spec = {"mode": mode, "argv": self.argv, "findings": findings}
        if mode == "traced":
            paths = [os.path.join(self.work, p) for p in self.workload.inputs]
            spec["replay"] = {
                "paths": paths,
                "summaries": self.options("--summaries"),
                "sarif": self.options("--sarif"),
                "header_out": self.options("--header-out"),
                "harness_out": self.options("--harness-out"),
            }
        spec_path = os.path.join(self.work, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        self.attempted += 1
        cmd = [sys.executable, str(HERE / "child.py"), spec_path]
        code, stdout, rss = run_child(cmd, self.env, self.work)
        lines = stdout.strip().splitlines()
        result = json.loads(lines[-1]) if code == 0 and lines else {}
        if result.get("code") not in (0, 1):
            self.failed += 1
            return None
        with open(findings, encoding="utf-8") as handle:
            text = handle.read()
        try:
            found = workloads.findings_of(text, self.work)
        except ValueError as exc:
            self.problems.append(str(exc))
            found = set()
        self.wrong += workloads.wrong_verdicts(self.workload.expected, found)
        outputs = [
            self.options(flag)
            for flag in ("--sarif", "--header-out", "--harness-out")
        ]
        if not self.digests:  # the first complete invocation
            self.problems += check_sarif(outputs[0], self.work, found)
            self.problems += check_generated(self.workload, *outputs[1:])
        self.digests.add(digest([findings] + outputs))
        ticks = result["ticks"]
        result["rss"] = rss
        result["scaled"] = to_reference(
            result["wall"] - sum(ticks), ticks, CALL_EXPONENT
        )
        result["factor"] = result["scaled"] / result["wall"]
        return result

    def loop(self, modes: list[str], min_rounds: int) -> dict[str, list[dict]]:
        """Invoke the modes in turn until `seconds` are spent, with at least
        `min_rounds` invocations of each."""
        results = {mode: [] for mode in modes}
        start = time.monotonic()
        rounds = []
        while True:
            round_start = time.monotonic()
            for mode in modes:
                result = self.invoke(mode)
                if result is not None:
                    results[mode].append(result)
            rounds.append(time.monotonic() - round_start)
            if len(rounds) >= min_rounds and (
                time.monotonic() - start + statistics.median(rounds) > self.seconds
            ):
                return results

    def correct(self) -> bool:
        return (
            self.wrong == 0
            and self.failed == 0
            and not self.problems
            and len(self.digests) == 1
        )

    def execute(self, trace: bool) -> dict:
        WORK.mkdir(exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{self.workload.name}-", dir=WORK)
        try:
            self.argv = workloads.materialize(self.workload, self.work)
            if trace:
                return self.per_layer()
            return self.end_to_end()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:
                pass

    def end_to_end(self) -> dict:
        plain = self.loop(["plain"], MIN_SAMPLES)["plain"]
        if not plain:
            raise BenchError("every invocation failed")
        # After the invocations, so that writing back the freshly generated
        # workload files no longer competes with the spawns.
        setup_raw, ticks = measure_setup(self.workload, self.work, self.env)
        setup = [
            to_reference(t, ticks[i] + ticks[i + 1], SPAWN_EXPONENT)
            for i, t in enumerate(setup_raw)
        ]
        scaled = [r["scaled"] for r in plain]
        wall = statistics.median(scaled)
        metrics = {
            "wall_s": wall,
            "lines_per_s": self.workload.lines / wall,
            "peak_rss_mb": statistics.median(r["rss"] for r in plain),
            "setup_s": statistics.median(setup),
        }
        self.print_report(
            metrics,
            call_rows("", plain)
            + [("setup_s", setup), ("setup_raw_s", setup_raw)]
            + [("setup_tick_ms", [t * 1e3 for group in ticks for t in group])],
        )
        return {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in metrics.items()}

    def per_layer(self) -> dict:
        results = self.loop(["plain", "traced"], 1)
        plain, traced = results["plain"], results["traced"]
        if not traced or not plain:
            raise BenchError("every invocation failed")
        timed = [n for n, unit in PER_LAYER_UNITS.items() if unit in ("s", "ms")]
        for r in traced:  # same machine-speed scaling as the wall times
            for name in timed:
                r["metrics"][name] *= r["factor"]
        metrics = summarize(
            [r["metrics"] for r in traced],
            [r["scaled"] for r in traced],
            [r["scaled"] for r in plain],
        )
        self.print_report(
            metrics, call_rows("plain.", plain) + call_rows("traced.", traced)
        )
        return {
            name: {"value": value, "unit": PER_LAYER_UNITS[name]}
            for name, value in metrics.items()
        }

    def print_report(self, metrics: dict, rows: list[tuple[str, list]]):
        """Human-readable lines: the workload, each sampled quantity with
        its median, quartiles and sample count, then the metrics."""
        w = self.workload
        print(
            f"workload {w.name} seed {self.seed}: {w.lines} input lines in"
            f" {len(w.inputs)} files, {w.functions} functions,"
            f" {len(w.expected)} expected findings"
        )
        for name, values in rows:
            if not values:
                continue
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(
                f"  {name:<20} median {statistics.median(values):.4f}"
                f"  q1 {q[0]:.4f}  q3 {q[2]:.4f}  n={len(values)}"
            )
        for name, value in metrics.items():
            print(f"  {name:<30} {value:.6g}")
        print(f"  wrong_verdicts {self.wrong}")
        print(f"  outputs_identical {len(self.digests) == 1}")
        print(f"  failed_ratio   {self.failed / self.attempted:.6g}"
              f" ({self.failed}/{self.attempted})")
        for problem in self.problems[:10]:
            print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stublint" / "cli.py").is_file():
        print(f"perfbench: no stublint sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run = Run(name, args.seed, args.seconds)
        try:
            metrics = run.execute(bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        summary["correct"] = summary["correct"] and run.correct()
        summary["attempted"] += run.attempted
        summary["failed"] += run.failed
        if len(names) == 1:
            summary["metrics"] = metrics
        else:
            summary["metrics"].update(
                {f"{name}.{key}": value for key, value in metrics.items()}
            )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
