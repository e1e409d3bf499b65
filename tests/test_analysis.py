"""The one product solve per function: lock state, value facts and
constants under one forward_solve call."""

from conftest import StatementGraph

import stublint.analysis
from stublint.analysis import BOTTOM, OPERANDS, solve_function
from stublint.c_frontend import nodes
from stublint.c_frontend.cfg import build_cfg
from stublint.cli import analyze_unit
from stublint.lock_analysis import LockState, load_summaries

THREE_STUBS = (
    "value f(value a)\n{\n    CAMLparam1(a);\n    CAMLreturn(a);\n}\n"
    "value g(value a)\n{\n"
    "    CAMLparam1(a);\n"
    "    while (p()) {\n"
    "        caml_enter_blocking_section();\n"
    "        caml_leave_blocking_section();\n"
    "    }\n"
    "    CAMLreturn(a);\n}\n"
    "static int h(int n)\n{\n    return n + 1;\n}\n"
)


def test_analyze_unit_solves_each_function_once(parse_c, monkeypatch):
    calls = []
    solve = stublint.analysis.forward_solve

    def counting(cfg, *rest):
        calls.append(cfg.fn.name)
        return solve(cfg, *rest)

    monkeypatch.setattr(stublint.analysis, "forward_solve", counting)
    analyze_unit(parse_c(THREE_STUBS), load_summaries())
    assert calls == ["f", "g", "h"]


def test_each_store_is_folded_once(parse_c, monkeypatch):
    """A statement's stores are judged where they land, so the fold that
    applies a store is the one its NAKED_POINTER check reads; a compound
    assignment folds `n op x` from the constant `n` held."""
    src = (
        "value f(value a)\n{\n"
        "    CAMLparam1(a);\n"
        "    CAMLlocal1(v);\n"
        "    long t = 4;\n"
        "    int n;\n"
        "    v = Val_int(3);\n"
        "    t = t + 2;\n"
        "    n = g();\n"
        "    n += 2;\n"
        "    v = t, v = (n += 1);\n"
        "    CAMLreturn(v);\n}\n"
    )
    folded = []
    fold = stublint.analysis.eval_const

    def counting(expr, env):
        folded.append(expr.line)
        return fold(expr, env)

    monkeypatch.setattr(stublint.analysis, "eval_const", counting)
    found = analyze_unit(parse_c(src), load_summaries())
    assert sorted(folded) == [5, 7, 8, 9, 10, 11, 11, 11]
    assert [(d.rule_id, d.line) for d in found] == [("NAKED_POINTER", 11)]


def test_unreached_blocks_keep_bottom_in_every_component(parse_c):
    src = (
        "value f(value a)\n{\n"
        "    int t;\n"
        "    CAMLreturn(a);\n"
        "    t = 2;\n"
        "    a = Field(a, 0);\n}\n"
    )
    cfg = build_cfg(parse_c(src).functions[0])
    heads = solve_function(cfg, load_summaries()).heads
    cfg = StatementGraph(cfg)
    dead = {n.id for n in cfg.statement_nodes() if n.stmt.line > 4}
    blocks = {b.id for b in cfg.blocks for n in b.nodes if n.id in dead}
    assert blocks
    assert all(heads[b] == BOTTOM == (LockState.BOTTOM, None, None) for b in blocks)
    # the reached blocks hold a state in every component
    reached = [h for b, h in enumerate(heads) if b not in blocks]
    assert all(None not in h and h[0] is not LockState.BOTTOM for h in reached)


def test_the_walk_knows_the_operands_of_every_node_type():
    """A node type the walk did not know would hide the calls and stores
    under it from every analysis: every node type a statement step meets
    is in OPERANDS, a leaf with none or listed with the operands C
    evaluates, and every operand a node holds as a plain expression is
    listed."""
    by_step = {nodes.VarDecl, nodes.Opaque}  # the step's own cases
    never_stepped = {nodes.StubFunction, nodes.SwitchCase}
    kinds = {
        kind
        for kind in vars(nodes).values()
        if isinstance(kind, type) and issubclass(kind, nodes._At)
    }
    assert kinds - {nodes._At} - by_step - never_stepped == set(OPERANDS)
    for kind, operands in OPERANDS.items():
        annotated = {
            name: annotation
            for cls in kind.__mro__
            for name, annotation in vars(cls).get("__annotations__", {}).items()
        }
        held = set(annotated)
        expressions = {name for name, ann in annotated.items() if ann == "object"}
        assert expressions <= set(operands) <= held, kind.__name__
