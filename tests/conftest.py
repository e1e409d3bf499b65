"""Shared fixtures: corpus paths and an in-memory analysis pipeline."""

from pathlib import Path

import pytest
from hypothesis import settings

from stublint.c_frontend.parser import parse_tokens
from stublint.c_frontend.preprocess import preprocess_local
from stublint.cli import analyze_unit, main
from stublint.lock_analysis import load_summaries

TESTS = Path(__file__).parent
CORPUS = TESTS / "corpus"

# No per-example deadline: the speed of a shared machine drifts by tens of
# percent, and a property test should fail on a wrong answer, not a slow one.
settings.register_profile("stublint", deadline=None)
settings.load_profile("stublint")


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


@pytest.fixture(scope="session")
def corpus_summaries_path() -> str:
    return str(CORPUS / "stublint-summaries.txt")


@pytest.fixture(scope="session")
def sarif_subset_schema() -> dict:
    import json

    return json.loads((TESTS / "data" / "sarif-2.1.0-subset.schema.json").read_text())


@pytest.fixture
def lint_c():
    """Full single-unit pipeline over C source text, no files involved."""

    def go(source: str, summaries: str | None = None, file_name: str = "test.c"):
        table = load_summaries(summaries)
        pre = preprocess_local(source, file_name)
        unit = parse_tokens(pre.tokens, file_name)
        return analyze_unit(unit, table) + list(pre.notes)

    return go


@pytest.fixture
def parse_c():
    """Preprocess + parse only; returns the StubUnit."""

    def go(source: str, file_name: str = "test.c"):
        pre = preprocess_local(source, file_name)
        return parse_tokens(pre.tokens, file_name)

    return go


@pytest.fixture
def run_main(capsys):
    """Invoke the CLI entry point in-process; returns (exit, stdout, stderr)."""

    def go(*argv: str):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go


def errors_of(diags):
    return [d for d in diags if d.severity == "error"]


def rules_of(diags):
    return sorted({d.rule_id for d in diags})
