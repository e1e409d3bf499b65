"""Shared fixtures: corpus paths, an in-memory analysis pipeline, and a
statement-level view of a CFG."""

from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import settings

from stublint.c_frontend.cfg import ENTRY, EXIT
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


@dataclass(eq=False)
class StmtNode:
    id: int
    kind: str  # "entry", "exit" or "stmt"
    stmt: object = None
    succs: list[int] = field(default_factory=list)

    @property
    def ops(self) -> tuple:
        return () if self.stmt is None else self.stmt.ops


@dataclass(eq=False)
class ViewBlock:
    id: int
    nodes: list[StmtNode]
    succs: list[int]


class StatementGraph:
    """A statement-level view of a Cfg: one node per placed statement, plus
    the synthetic entry, which heads block 0, and exit, which is block 1.
    Entry and exit are nodes 0 and 1, and the statements follow in source
    order.  A statement's successor is the next statement of its block, or
    else the first node of each successor block."""

    def __init__(self, cfg):
        self.entry = StmtNode(ENTRY, "entry")
        self.exit = StmtNode(EXIT, "exit")
        self.blocks = []
        for block in cfg.blocks:
            nodes = [StmtNode(-1, "stmt", stmt) for stmt in block.stmts]
            if block.id == ENTRY:
                nodes.insert(0, self.entry)
            if block.id == EXIT:
                assert not nodes
                nodes = [self.exit]
            assert nodes, "a block other than the entry's holds no statement"
            self.blocks.append(ViewBlock(block.id, nodes, block.succs))
        stmts = sorted(
            (n for b in self.blocks for n in b.nodes if n.kind == "stmt"),
            key=lambda n: (n.stmt.line, n.stmt.col),
        )
        for number, node in enumerate(stmts, start=2):
            node.id = number
        self.nodes = [self.entry, self.exit, *stmts]
        for block in self.blocks:
            for node, nxt in zip(block.nodes, block.nodes[1:]):
                node.succs.append(nxt.id)
            block.nodes[-1].succs += [self.blocks[s].nodes[0].id for s in block.succs]

    def statement_nodes(self) -> list[StmtNode]:
        return self.nodes[2:]

    def edges(self) -> list[tuple[int, int]]:
        return [(n.id, s) for n in self.nodes for s in n.succs]

    def unreachable(self) -> list[int]:
        seen = {ENTRY}
        work = [ENTRY]
        while work:
            for succ in self.nodes[work.pop()].succs:
                if succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return [n.id for n in self.statement_nodes() if n.id not in seen]
