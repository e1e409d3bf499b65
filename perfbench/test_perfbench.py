"""Tests of the benchmark itself: generators, oracles, metric names and the
traced replay.  They run small versions of the three workloads in-process
(stublint must be importable, e.g. with PYTHONPATH=src)."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

import metrics
import spans
import workloads
from stublint.cli import main

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = {
    "parity": lambda seed: workloads.parity(seed, assigns=64),
    "synth": lambda seed: workloads.synth(seed, stubs=8),
    "corpus": lambda seed: workloads.corpus(seed, replicas=2),
}


def snapshot(workload):
    return (
        list(workload.inputs.items()),
        workload.extras,
        workload.options,
        workload.expected,
        workload.symbols,
    )


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", workloads.GENERATORS)
def test_generator_is_deterministic_per_seed(name):
    generate = workloads.GENERATORS[name]
    first = snapshot(generate(7))
    assert snapshot(generate(7)) == first
    assert list(generate(8).inputs.items()) != first[0]


@pytest.mark.parametrize("name", workloads.GENERATORS)
def test_seed_does_not_change_the_amount_of_work(name):
    one, two = workloads.GENERATORS[name](1), workloads.GENERATORS[name](2)
    assert one.lines == two.lines
    assert sum(map(len, one.inputs.values())) == sum(map(len, two.inputs.values()))
    assert len(one.expected) == len(two.expected)


@pytest.mark.parametrize("name", SMALL)
def test_oracle_agrees_with_stublint_and_catches_a_planted_verdict(name, tmp_path):
    workload = SMALL[name](3)
    argv = workloads.materialize(workload, str(tmp_path))
    code, text = run_main(argv)
    assert code in (0, 1)
    found = workloads.findings_of(text, str(tmp_path))
    assert workloads.wrong_verdicts(workload.expected, found) == 0

    extra = ("NAKED_POINTER", next(iter(workload.inputs)), 1)
    assert workloads.wrong_verdicts(workload.expected, found | {extra}) == 1
    if found:
        missing = set(sorted(found)[1:])
        assert workloads.wrong_verdicts(workload.expected, missing) == 1


def test_findings_of_skips_notes_and_rejects_garbage(tmp_path):
    root = str(tmp_path)
    text = (
        f"{root}/a.c:3:5: error: NAKED_POINTER: x\n"
        f"{root}/a.ml:1:1: note: NOTE: y\n"
    )
    assert workloads.findings_of(text, root) == {("NAKED_POINTER", "a.c", 3)}
    with pytest.raises(ValueError):
        workloads.findings_of("Traceback (most recent call last):\n", root)


def test_corpus_copies_share_no_symbol():
    workload = workloads.corpus(5, replicas=3)
    assert len(workload.symbols) == 3 * 10
    assert len(workload.expected) == 3 * 5
    defined = [
        name
        for rel, text in workload.inputs.items()
        if rel.endswith(".c")
        for name in workloads._DEFINED_RE.findall(text)
    ]
    assert len(defined) == len(set(defined))


@pytest.mark.parametrize("name", SMALL)
def test_traced_replay_matches_main(name, tmp_path):
    workload = SMALL[name](4)
    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    argv = workloads.materialize(workload, str(plain_dir))
    code, text = run_main(argv)

    root = str(traced_dir)
    workloads.materialize(workload, root)
    tracer = spans.Tracer()

    def option(flag):
        return str(traced_dir / workload.option(flag))

    traced = spans.traced_main(
        tracer,
        [str(traced_dir / p) for p in workload.inputs],
        summaries=option("--summaries") if workload.option("--summaries") else None,
        sarif=option("--sarif"),
        header_out=option("--header-out"),
        harness_out=option("--harness-out"),
    )
    assert traced.replace(root, str(plain_dir)) == text
    for flag in ("--sarif", "--header-out", "--harness-out"):
        rel = workload.option(flag)
        assert (traced_dir / rel).read_text().replace(root, str(plain_dir)) == (
            plain_dir / rel
        ).read_text()

    layer = spans.layer_metrics(tracer)
    assert set(layer) | {"trace.overhead_ratio", "trace.replays"} == set(
        metrics.PER_LAYER_UNITS
    )
    assert layer["cli.driver_self_s"] >= 0
    assert layer["c_frontend.functions"] == workload.functions
    assert layer["analyze.fn_samples"] == workload.functions


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == metrics.END_TO_END_UNITS
    assert per_layer == metrics.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.GENERATORS)
    for name in [*end_to_end, *per_layer, *workloads.GENERATORS]:
        assert NAME_RE.fullmatch(name), name
