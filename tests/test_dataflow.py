"""The forward worklist solver over basic blocks, independent of any
particular lattice."""

from conftest import StatementGraph
from hypothesis import given, strategies as st

from stublint.c_frontend.cfg import ENTRY, build_cfg
from stublint.c_frontend.parser import parse_unit
from stublint.dataflow import forward_solve


def toy_counter(cfg):
    """Count statements along the path, capped at 9 (a finite chain).  Each
    statement reports (statement, count at its entry)."""

    def step(stmt, k, found):
        found.append((stmt, k))
        return min(k + 1, 9)

    def join(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return max(a, b)

    return forward_solve(cfg, 0, step, join, None, lambda k: k)


def cfg_from(src):
    return build_cfg(parse_unit(src, "t.c").functions[0])


def head_of(cfg, heads, node):
    """The state at the head of the block that holds `node` of the
    statement-level view `cfg`."""
    return next(heads[b.id] for b in cfg.blocks if node in b.nodes)


def test_a_step_that_returns_bottom_ends_the_path():
    cfg = cfg_from("value f(value a) { if (p()) { stop(); g(); } h(); return a; }")

    def callee(stmt):
        return stmt.expr.callee if type(stmt).__name__ == "ExprStmt" else None

    def step(stmt, k, found):
        found.append(callee(stmt))
        return None if callee(stmt) == "stop" else k + 1

    def join(a, b):
        return b if a is None else a if b is None else max(a, b)

    heads, _, found = forward_solve(cfg, 0, step, join, None, lambda k: k)
    # `g` after `stop` is never stepped, and nothing flows on from `stop`:
    # `h` is entered with the count after the `if` alone
    assert [name for name in found if name] == ["stop", "h"]
    view = StatementGraph(cfg)
    h = next(n for n in view.statement_nodes() if "'h'" in repr(n.stmt))
    assert head_of(view, heads, h) == 1


def test_straight_line_counts_statements():
    cfg = cfg_from("value f(value a) { g(); h(); k(); return a; }")
    heads, _, _ = toy_counter(cfg)
    cfg = StatementGraph(cfg)
    assert head_of(cfg, heads, cfg.exit) == 4


def test_unreachable_nodes_keep_bottom():
    cfg = cfg_from("value f(value a) { return a; g(); }")
    heads, _, _ = toy_counter(cfg)
    cfg = StatementGraph(cfg)
    dead = next(n for n in cfg.statement_nodes() if "'g'" in repr(n.stmt))
    assert head_of(cfg, heads, dead) is None


def test_branches_join_with_the_maximum():
    cfg = cfg_from(
        "value f(value a) { if (p()) { g(); h(); } else { k(); } return a; }"
    )
    heads, _, _ = toy_counter(cfg)
    cfg = StatementGraph(cfg)
    # longest path into exit: if + two then-statements + return
    assert head_of(cfg, heads, cfg.exit) == 4


def test_loops_reach_a_fixpoint():
    cfg = cfg_from("value f(value a) { while (p()) { g(); } return a; }")
    heads, pops, _ = toy_counter(cfg)
    cfg = StatementGraph(cfg)
    assert head_of(cfg, heads, cfg.exit) == 9  # saturates at the chain cap
    # pops counts block visits; every reached block is visited
    assert pops >= sum(head is not None for head in heads)


def test_findings_come_from_each_blocks_last_visit():
    cfg = cfg_from("value f(value a) { while (p()) { g(); } return a; }")
    heads, pops, found = toy_counter(cfg)
    cfg = StatementGraph(cfg)
    assert pops > len(cfg.blocks)  # the loop blocks were visited again
    # every reached statement reports once, from the fixpoint head state
    reached = [n for b in cfg.blocks if heads[b.id] is not None for n in b.nodes]
    assert [s for s, _ in found] == [n.stmt for n in reached if n.kind == "stmt"]
    call = next(n for n in cfg.statement_nodes() if "'g'" in repr(n.stmt))
    assert dict(found)[call.stmt] == 9


def test_statements_after_a_return_keep_bottom_heads():
    cfg = cfg_from(
        "value f(value a) { g(); return a; h(); while (p()) { k(); } m(); }"
    )
    heads, _, found = toy_counter(cfg)
    ret = cfg.fn.body[1]
    dead = {b.id for b in cfg.blocks for s in b.stmts if s.col > ret.col}
    assert len(dead) == 4 and ENTRY not in dead
    assert all(heads[b] is None for b in dead)
    assert [type(s).__name__ for s, _ in found] == ["ExprStmt", "Return"]


BRANCHY = st.lists(
    st.sampled_from(
        [
            "x = g();",
            "if (p()) { x = g(); }",
            "while (q()) { x = h(x); }",
            "if (p()) { x = g(); } else { x = h(x); }",
        ]
    ),
    min_size=1,
    max_size=6,
)


# Heights of the head lattices over BRANCHY's variables `a` (a value
# parameter) and `x`.  Lock: bottom, then held or released, then unknown.
# Value facts: bottom, then per variable VALUE -> plain or heap -> stale
# heap -> plain.  Constants: bottom, then per variable known -> unknown.
LOCK_HEIGHT = 2
VALUE_HEIGHT = 1 + 2 * 2
CONST_HEIGHT = 1 + 2
PRODUCT_HEIGHT = LOCK_HEIGHT + VALUE_HEIGHT + CONST_HEIGHT


@given(BRANCHY)
def test_pop_budget_tracks_lattice_height(stmts):
    """Monotone transfer over the product lattice: a block is queued again
    only when its head rises, so it is visited at most height+1 times."""
    from stublint.analysis import solve_function
    from stublint.lock_analysis import load_summaries

    src = "value f(value a)\n{\n" + "\n".join(stmts) + "\nreturn a;\n}\n"
    cfg = cfg_from(src)
    pops = solve_function(cfg, load_summaries()).pops
    assert pops <= len(cfg.blocks) * (PRODUCT_HEIGHT + 1)
