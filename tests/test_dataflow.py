"""The forward worklist solver over basic blocks, independent of any
particular lattice."""

from hypothesis import given, strategies as st

from stublint.c_frontend.cfg import build_cfg
from stublint.c_frontend.parser import parse_unit
from stublint.dataflow import forward_solve


def toy_counter(cfg):
    """Count statements along the path, capped at 9 (a finite chain).  Each
    statement node reports (node id, count at its entry)."""

    def step(node, k, found):
        if node.kind == "stmt":
            found.append((node.id, k))
            k = min(k + 1, 9)
        return k

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
    """The state at the head of the block that holds `node`."""
    return next(heads[b.id] for b in cfg.blocks if node in b.nodes)


def test_straight_line_counts_statements():
    cfg = cfg_from("value f(value a) { g(); h(); k(); return a; }")
    heads, _, _ = toy_counter(cfg)
    assert head_of(cfg, heads, cfg.exit) == 4


def test_unreachable_nodes_keep_bottom():
    cfg = cfg_from("value f(value a) { return a; g(); }")
    heads, _, _ = toy_counter(cfg)
    dead = next(n for n in cfg.statement_nodes() if "'g'" in repr(n.stmt))
    assert head_of(cfg, heads, dead) is None


def test_branches_join_with_the_maximum():
    cfg = cfg_from(
        "value f(value a) { if (p()) { g(); h(); } else { k(); } return a; }"
    )
    heads, _, _ = toy_counter(cfg)
    # longest path into exit: if + two then-statements + return
    assert head_of(cfg, heads, cfg.exit) == 4


def test_loops_reach_a_fixpoint():
    cfg = cfg_from("value f(value a) { while (p()) { g(); } return a; }")
    heads, pops, _ = toy_counter(cfg)
    assert head_of(cfg, heads, cfg.exit) == 9  # saturates at the chain cap
    # pops counts block visits; every reached block is visited
    assert pops >= sum(head is not None for head in heads)


def test_findings_come_from_each_blocks_last_visit():
    cfg = cfg_from("value f(value a) { while (p()) { g(); } return a; }")
    heads, pops, found = toy_counter(cfg)
    assert pops > len(cfg.blocks)  # the loop blocks were visited again
    # every reached statement reports once, from the fixpoint head state
    reached = [n for b in cfg.blocks if heads[b.id] is not None for n in b.nodes]
    assert [nid for nid, _ in found] == [n.id for n in reached if n.kind == "stmt"]
    call = next(n for n in cfg.statement_nodes() if "'g'" in repr(n.stmt))
    assert dict(found)[call.id] == 9


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
