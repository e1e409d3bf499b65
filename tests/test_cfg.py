"""Control-flow graph construction over the parsed stub subset."""

from collections import Counter

import stubgen
from conftest import StatementGraph, walked
from hypothesis import given, strategies as st

from stublint import analysis
from stublint.c_frontend import parse_tokens, preprocess_local
from stublint.c_frontend.cfg import ENTRY, EXIT, build_cfg
from stublint.dataflow import forward_solve
from stublint.lock_analysis import load_summaries


def cfg_of(parse_c, src, name=None):
    unit = parse_c(src)
    fns = unit.functions if name is None else [f for f in unit.functions if f.name == name]
    assert fns, "no function parsed"
    return StatementGraph(build_cfg(fns[0]))


def path_ends(monkeypatch, fn):
    """The statements whose step in the product solve of `fn` returns the
    bottom state, which ends the path, and every statement stepped."""
    ended, stepped = [], []

    def solve(cfg, init, step, join, bottom, fresh):
        def watched(stmt, state, found):
            stepped.append(stmt)
            state = step(stmt, state, found)
            if state is bottom:
                ended.append(stmt)
            return state

        return forward_solve(cfg, init, watched, join, bottom, fresh)

    monkeypatch.setattr(analysis, "forward_solve", solve)
    analysis.solve_function(build_cfg(fn), load_summaries())
    return ended, stepped


NOTIFY = """\
value stub_eventchn_notify(value xce, value port)
{
    CAMLparam2(xce, port);
    int rc;

    caml_enter_blocking_section();
    rc = xenevtchn_notify(xce, Int_val(port));
    caml_leave_blocking_section();

    if (rc == -1)
        caml_failwith("evtchn notify failed");

    CAMLreturn(Val_unit);
}
"""


def test_blocking_stub_spine(parse_c, monkeypatch):
    """The canonical enter/call/leave/raise-or-return stub: seven statement
    nodes (the uninitialized declaration contributes none) and nine edges."""
    fn = parse_c(NOTIFY).functions[0]
    cfg = StatementGraph(build_cfg(fn))
    stmts = cfg.statement_nodes()
    assert len(stmts) == 7
    assert len(cfg.edges()) == 9
    # caml_failwith never returns, but the blocks come from the syntax: it
    # falls through to the CAMLreturn, and the solver ends its path
    failwith = next(
        n
        for n in stmts
        if type(n.stmt).__name__ == "ExprStmt" and "caml_failwith" in repr(n.stmt)
    )
    ret = next(n for n in stmts if type(n.stmt).__name__ == "Return")
    assert failwith.succs == [ret.id]
    ended, _ = path_ends(monkeypatch, fn)
    assert ended == [failwith.stmt]
    # the if has two successors: the raise and the fallthrough CAMLreturn
    branch = next(n for n in stmts if type(n.stmt).__name__ == "If")
    assert len(branch.succs) == 2


def test_entry_and_exit_are_synthetic(parse_c):
    cfg = cfg_of(parse_c, "value f(value a) { return a; }")
    assert cfg.entry.id == ENTRY and cfg.entry.kind == "entry"
    assert cfg.exit.id == EXIT and cfg.exit.kind == "exit"
    assert cfg.entry.stmt is None and cfg.exit.stmt is None


def test_empty_body_connects_entry_to_exit(parse_c):
    cfg = cfg_of(parse_c, "value f(value a) { }")
    assert cfg.statement_nodes() == []
    assert cfg.edges() == [(ENTRY, EXIT)]


def test_uninitialized_declarations_make_no_nodes(parse_c):
    cfg = cfg_of(parse_c, "value f(value a) { int x; int y; value v; return a; }")
    assert len(cfg.statement_nodes()) == 1  # just the return


def test_initialized_declaration_makes_one_node(parse_c):
    cfg = cfg_of(parse_c, "value f(value a) { int x = g(); return a; }")
    assert len(cfg.statement_nodes()) == 2


@given(st.integers(min_value=1, max_value=24))
def test_straight_line_has_k_nodes_and_k_plus_one_edges(k):
    from stublint.c_frontend.parser import parse_unit

    body = "".join(f"    x = {i};\n" for i in range(k))
    unit = parse_unit("value f(value a)\n{\n" + body + "}\n", "gen.c")
    cfg = StatementGraph(build_cfg(unit.functions[0]))
    assert len(cfg.statement_nodes()) == k
    assert len(cfg.edges()) == k + 1


def test_while_loop_back_edge(parse_c):
    cfg = cfg_of(parse_c, "value f(value a) { while (g()) { a = h(a); } return a; }")
    cond = next(n for n in cfg.statement_nodes() if type(n.stmt).__name__ == "While")
    body = next(n for n in cfg.statement_nodes() if type(n.stmt).__name__ == "ExprStmt")
    assert body.succs == [cond.id]  # back edge
    assert set(cond.succs) == {body.id, cfg.statement_nodes()[-1].id}


def test_break_and_continue_target_loop_boundaries(parse_c):
    src = (
        "value f(value a)\n{\n"
        "    while (g()) {\n"
        "        if (p()) break;\n"
        "        if (q()) continue;\n"
        "        a = h(a);\n"
        "    }\n"
        "    return a;\n}\n"
    )
    cfg = cfg_of(parse_c, src)
    nodes = cfg.statement_nodes()
    cond = next(n for n in nodes if type(n.stmt).__name__ == "While")
    ret = next(n for n in nodes if type(n.stmt).__name__ == "Return")
    brk = next(n for n in nodes if type(n.stmt).__name__ == "Break")
    cont = next(n for n in nodes if type(n.stmt).__name__ == "Continue")
    assert brk.succs == [ret.id]
    assert cont.succs == [cond.id]


def test_for_loop_shape(parse_c):
    src = "value f(value a) { int i; for (i = 0; i < 4; i++) a = h(a); return a; }"
    cfg = cfg_of(parse_c, src)
    nodes = cfg.statement_nodes()
    # init, cond, body, step, return
    assert len(nodes) == 5
    cond = next(n for n in nodes if type(n.stmt).__name__ == "For")
    assert len(cond.succs) == 2  # body and loop exit


def test_for_without_condition_still_gets_a_node(parse_c):
    src = "value f(value a) { for (;;) { a = h(a); } return a; }"
    cfg = cfg_of(parse_c, src)
    assert any(type(n.stmt).__name__ == "For" for n in cfg.statement_nodes())


def test_return_has_no_fallthrough(parse_c):
    src = "value f(value a) { return a; a = h(a); }"
    cfg = cfg_of(parse_c, src)
    ret = next(n for n in cfg.statement_nodes() if type(n.stmt).__name__ == "Return")
    assert ret.succs == [EXIT]
    assert cfg.unreachable()  # the trailing assignment


def test_camlreturn_edges_to_exit_only(parse_c):
    src = "value f(value a) { CAMLparam1(a); CAMLreturn(a); a = h(a); }"
    cfg = cfg_of(parse_c, src)
    cr = next(
        n for n in cfg.statement_nodes() if "CAMLreturn" in repr(n.stmt)
    )
    assert cr.succs == [EXIT]


def test_switch_lowers_to_fallthrough_chain(parse_c):
    src = (
        "value f(value a)\n{\n"
        "    switch (g()) {\n"
        "    case 0:\n"
        "        a = h(a);\n"  # no break: falls through to case 1
        "    case 1:\n"
        "        a = k(a);\n"
        "        break;\n"
        "    default:\n"
        "        a = m(a);\n"
        "    }\n"
        "    return a;\n}\n"
    )
    cfg = cfg_of(parse_c, src)
    exprs = [n for n in cfg.statement_nodes() if type(n.stmt).__name__ == "ExprStmt"]
    h_node = next(n for n in exprs if "'h'" in repr(n.stmt))
    k_node = next(n for n in exprs if "'k'" in repr(n.stmt))
    m_node = next(n for n in exprs if "'m'" in repr(n.stmt))
    dispatch = next(
        n for n in cfg.statement_nodes() if type(n.stmt).__name__ == "Switch"
    )
    # the subject may reach any case head; bodies fall through across labels
    assert {h_node.id, k_node.id, m_node.id} <= set(dispatch.succs)
    assert h_node.succs == [k_node.id]  # fallthrough across the case label
    assert k_node.succs != [m_node.id]  # break skips the default body


def test_goto_keeps_analysis_going_with_fallthrough(parse_c):
    src = (
        "value f(value a)\n{\nout:\n"
        "    a = h(a);\n"
        "    if (g()) goto out;\n"
        "    return a;\n}\n"
    )
    cfg = cfg_of(parse_c, src)
    opaque = next(n for n in cfg.statement_nodes() if type(n.stmt).__name__ == "Opaque")
    assert opaque.succs  # fallthrough edge, not a dead end


def test_the_path_ends_at_a_raise(parse_c, monkeypatch):
    src = (
        "value f(value a)\n{\n"
        "    if (Int_val(a) < 0)\n"
        "        caml_raise_not_found();\n"
        "    a = h(a);\n"
        "    return a;\n}\n"
    )
    fn = parse_c(src).functions[0]
    cfg = StatementGraph(build_cfg(fn))
    raise_node, assign = [
        n for n in cfg.statement_nodes() if type(n.stmt).__name__ == "ExprStmt"
    ]
    assert "caml_raise" in repr(raise_node.stmt)
    assert raise_node.succs == [assign.id]  # the CFG falls through
    assert not cfg.unreachable()
    # the solver ends the path at the raise; the false branch still reaches h
    ended, stepped = path_ends(monkeypatch, fn)
    assert ended == [raise_node.stmt]
    assert assign.stmt in stepped


def test_raise_if_exception_may_return(parse_c, lint_c, monkeypatch):
    # caml_raise_if_exception returns when its argument is no exception, so
    # the path goes on past it, and a finding after it is still reported
    src = (
        "value f(value a)\n{\n"
        "    caml_raise_if_exception(a);\n"
        "    caml_enter_blocking_section();\n"
        "    a = Field(a, 0);\n"
        "    caml_leave_blocking_section();\n"
        "    return a;\n}\n"
    )
    for raises, want in [
        ("caml_raise_if_exception(a)", [("VALUE_DEREF_UNLOCKED", 5)]),
        ("caml_raise_not_found()", []),
    ]:
        stub = src.replace("caml_raise_if_exception(a)", raises)
        found = [
            (d.rule_id, d.line)
            for d in lint_c(stub)
            if d.rule_id != "MISSING_CAMLPARAM"
        ]
        assert found == want, raises
    ended, _ = path_ends(monkeypatch, parse_c(src).functions[0])
    assert ended == []


def test_statements_after_a_raise_join_its_block_and_are_never_stepped(
    parse_c, monkeypatch
):
    fn, cfg, _ = lowered(parse_c, 'caml_failwith("x"); a = h(a); return a;')
    # one block, entered at the entry
    assert [b.stmts for b in cfg.blocks] == [fn.body, []]
    ended, stepped = path_ends(monkeypatch, fn)
    assert ended == stepped == fn.body[:1]


def test_a_raise_falls_through_in_the_cfg(parse_c):
    # a case that ends in a raise falls into the next case, and a loop body
    # that ends in one loops back to the condition
    fn, cfg, block_of = lowered(
        parse_c,
        'switch (Int_val(a)) { case 0: g(); caml_failwith("zero");'
        " case 1: h(); break; }"
        " while (p()) { k(); caml_raise_not_found(); } return a;",
    )
    switch, loop = fn.body[:2]
    case0, case1 = switch.cases
    assert cfg.blocks[block_of[id(case0.body[-1])]].succs == [
        block_of[id(case1.body[0])]
    ]
    assert cfg.blocks[block_of[id(loop.body[-1])]].succs == [block_of[id(loop)]]


SHAPES = st.lists(
    st.sampled_from(
        [
            "a = g(a);",
            "if (p()) { a = g(a); h(); }",
            "if (p()) a = g(a); else { h(); k(); }",
            "while (q()) { h(); if (p()) break; k(); }",
            "do { h(); if (p()) continue; } while (q());",
            "for (i = 0; i < 4; i++) h();",
            "switch (g()) { case 0: h(); case 1: k(); break; default: m(); }",
            "return a;",
            "for (;;) { h(); }",  # after a return: an unreachable cycle
            "caml_failwith(\"x\");",
        ]
    ),
    min_size=1,
    max_size=6,
)


@given(SHAPES)
def test_blocks_are_maximal_straight_runs(stmts):
    from stublint.c_frontend.parser import parse_unit

    src = "value f(value a)\n{\n    int i;\n" + "\n".join(stmts) + "\nreturn a;\n}\n"
    fn = parse_unit(src, "gen.c").functions[0]
    cfg = StatementGraph(build_cfg(fn))
    # every node in exactly one block; block 0 starts at the entry, and the
    # exit is alone in its block
    assert sorted(n.id for b in cfg.blocks for n in b.nodes) == list(
        range(len(cfg.nodes))
    )
    assert cfg.blocks[0].nodes[0] is cfg.entry
    assert [b.nodes for b in cfg.blocks if cfg.exit in b.nodes] == [[cfg.exit]]
    preds = {n.id: [] for n in cfg.nodes}
    for n in cfg.nodes:
        for succ in n.succs:
            preds[succ].append(n)
    head_block = {b.nodes[0].id: b.id for b in cfg.blocks}
    dead = set(cfg.unreachable())
    for block in cfg.blocks:
        # inside a block control only falls through
        for node, nxt in zip(block.nodes, block.nodes[1:]):
            assert node.succs == [nxt.id] and preds[nxt.id] == [node]
        # a block ends where control branches or the next node is joined
        assert block.succs == [head_block[s] for s in block.nodes[-1].succs]
        head = block.nodes[0]
        if head.id not in dead and head is not cfg.exit:
            pred = preds[head.id]
            assert not (len(pred) == 1 and pred[0].succs == [head.id])


# -- blocks: where the builder starts and continues them ----------------------


def lowered(parse_c, body):
    """The function `body` is the body of, its Cfg, and each statement's
    block, keyed by the statement's id.  The `int i;` put before `body`
    executes nothing, so it is not in `fn.body`."""
    fn = parse_c("value f(value a)\n{\n    int i;\n" + body + "\n}\n").functions[0]
    cfg = build_cfg(fn)
    return fn, cfg, {id(s): b.id for b in cfg.blocks for s in b.stmts}


def test_for_step_joins_the_bodys_last_block(parse_c):
    fn, cfg, block_of = lowered(parse_c, "for (i = 0; i < 4; i++) { h(); k(); }")
    loop = fn.body[-1]
    assert block_of[id(loop.step)] == block_of[id(loop.body[-1])]
    # the body's block loops back to the condition, which heads its own
    step_block = cfg.blocks[block_of[id(loop.step)]]
    assert step_block.stmts == loop.body + [loop.step]
    assert step_block.succs == [block_of[id(loop)]]
    assert cfg.blocks[block_of[id(loop)]].stmts == [loop]


def test_do_while_condition_joins_the_bodys_last_block(parse_c):
    fn, cfg, block_of = lowered(parse_c, "g(); do { h(); k(); } while (q());")
    loop = fn.body[-1]
    body_block = cfg.blocks[block_of[id(loop)]]
    assert body_block.stmts == loop.body + [loop]
    assert body_block.succs[0] == body_block.id  # the back edge
    # a `continue` enters the condition too, so it heads a block
    fn, cfg, block_of = lowered(
        parse_c, "do { h(); if (p()) continue; k(); } while (q());"
    )
    loop = fn.body[-1]
    assert cfg.blocks[block_of[id(loop)]].stmts == [loop]


def test_do_while_loops_back_to_its_bodys_first_statement(parse_c):
    # the outer body starts with an inner do-while, whose own body is the
    # first thing the outer back edge runs again
    fn, cfg, block_of = lowered(
        parse_c, "do { do { h(); } while (b()); k(); } while (q());"
    )
    outer = fn.body[-1]
    inner = outer.body[0]
    first = block_of[id(inner.body[0])]
    assert cfg.blocks[block_of[id(outer)]].succs[0] == first
    assert cfg.blocks[block_of[id(inner)]].succs[0] == first


def test_a_loop_head_heads_a_block_only_when_a_back_edge_enters_it(parse_c):
    fn, cfg, block_of = lowered(parse_c, "g(); while (p()) { h(); } return a;")
    call, loop = fn.body[:2]
    assert block_of[id(call)] != block_of[id(loop)]
    assert cfg.blocks[block_of[id(loop)]].stmts == [loop]
    # a body that never falls through and has no `continue` gives none
    fn, cfg, block_of = lowered(parse_c, "g(); while (p()) { return a; } h();")
    call, loop = fn.body[:2]
    assert block_of[id(call)] == block_of[id(loop)]


def test_an_empty_if_adds_no_block(parse_c):
    for empty in ("if (c()) {}", "if (c()) ;", "if (c()) {} else { int j; }"):
        fn, cfg, block_of = lowered(parse_c, f"g(); {empty} h(); return a;")
        assert [b.stmts for b in cfg.blocks] == [fn.body, []], empty


def _kept(stmts):
    """Every statement the parser keeps under `stmts`: those of the lists,
    in `then` and `els`, loop and case bodies, and each `for` step."""
    for stmt in stmts:
        yield stmt
        for name in ("then", "els", "body"):
            yield from _kept(getattr(stmt, name, None) or ())
        for case in getattr(stmt, "cases", ()):
            yield from _kept(case.body)
        if getattr(stmt, "step", None) is not None:
            yield stmt.step


def test_every_kept_statement_is_placed_exactly_once():
    # the parser keeps only what executes, and the builder places all of it
    for name, source in stubgen.stubs():
        unit = parse_tokens(preprocess_local(source, name).tokens, name)
        for fn in unit.functions:
            cfg = build_cfg(fn)
            placed = Counter(id(s) for block in cfg.blocks for s in block.stmts)
            kept = Counter(id(s) for s in _kept(fn.body))
            assert placed == kept, (name, fn.name)
            assert set(placed.values()) == {1}, (name, fn.name)


def test_node_count_is_the_statements_plus_entry_and_exit(parse_c):
    # perfbench counts len(cfg.nodes) as c_frontend.cfg_nodes
    for body, statements in (
        ("int j; int k = 1; return a;", 2),
        ("for (i = 0; i < 4; i++) h(); return a;", 5),
        ("do { h(); } while (q()); while (p()) { if (r()) break; } return a;", 6),
        ("return a; h(); for (;;) { k(); }", 4),
    ):
        _, cfg, block_of = lowered(parse_c, body)
        assert len(block_of) == statements, body
        assert len(cfg.nodes) == statements + 2, body


# -- the walk: what each statement does, in evaluation order -------------------


def _spell(expr):
    kind = type(expr).__name__
    if kind == "Name":
        return expr.ident
    if kind == "Num":
        return expr.text
    if kind == "Member":
        return _spell(expr.obj) + ("->" if expr.arrow else ".") + expr.fieldname
    if kind == "Index":
        return _spell(expr.obj) + "[]"
    if kind == "Call":
        return _spell(expr.func) + "()"
    if kind == "Assign":
        return f"({_spell(expr.target)}{expr.op}{_spell(expr.value)})"
    return kind


def _show(met):
    """What the walk met as text, or None when it is nothing the analyses
    apply: a call of a plain name, a dereference (`*`, `->`, `[]`), a
    store, an `&` or a `++`/`--` of a name.  Each has its kind, its name or
    pointer, and where it sits."""
    if isinstance(met, tuple):
        _, name, op, value, where = met
        return f"assign {name} {op} {_spell(value)} {where.line}:{where.col}"
    at = f"{met.line}:{met.col}"
    kind = type(met).__name__
    if kind == "Call" and met.callee is not None:
        return f"call {met.callee} {at}"
    if kind == "Index" or kind == "Member" and met.arrow:
        return f"deref {_spell(met.obj)} {at}"
    if kind != "Unary":
        return None
    if met.op == "*":
        return f"deref {_spell(met.operand)} {at}"
    if type(met.operand).__name__ != "Name":
        return None
    if met.op == "&":
        return f"addr {met.operand.ident} {at}"
    if met.op in ("++", "--"):
        return f"bump {met.operand.ident}"
    return None


# Each statement, on line 4 from column 5, against what the walk meets in
# each of the statements it makes, in statement order.  The walk is done
# with a node's operands before the node, operands left to right, so an
# inner call or assignment precedes the outer one.  A call is at the first
# token of its callee.  The global initializer on line 1 and the `case`
# label are never walked.
OP_TABLE = [
    ("v = (n = 2);", [["assign n = 2 4:12", "assign v = (n=2) 4:7"]]),
    ("f(g(x));", [["call g 4:7", "call f 4:5"]]),
    ("*p = q->r[i];", [["deref p 4:5", "deref q 4:11", "deref q->r 4:14"]]),
    ("&x;", [["addr x 4:5"]]),
    ("x++;", [["bump x"]]),
    ("--x;", [["bump x"]]),
    ("(*fp)(x);", [["deref fp 4:6"]]),
    # `sizeof` evaluates nothing
    ("sizeof(*p);", [[]]),
    # init, condition, step (its own statement), body
    (
        "for (i = 0; i < n; i++) g(&i);",
        [["assign i = 0 4:12"], [], ["bump i"], ["addr i 4:31", "call g 4:29"]],
    ),
    # each initialized declarator ends with its own store, at its name
    (
        "value v = f(), w = v;",
        [["call f 4:15", "assign v = f() 4:11"], ["assign w = v 4:20"]],
    ),
    ("switch (k()) { case f(2): g(); }", [["call k 4:13"], ["call g 4:31"]]),
    ("return s.t + g(x);", [["call g 4:18"]]),
    (
        "if (p(x)) h(y); else while (*q) q++;",
        [["call p 4:9"], ["call h 4:15"], ["deref q 4:33"], ["bump q"]],
    ),
    # the condition's statement is made before the body's
    ("do x += 1; while (x--);", [["bump x"], ["assign x += 1 4:10"]]),
    # an arm of `?:`, or the right operand of `&&` or `||`, that a
    # condition the fold does not know may select is walked
    (
        "x = g() ? (y = 1) : h();",
        [["call g 4:9", "assign y = 1 4:18", "call h 4:25", "assign x = Ternary 4:7"]],
    ),
    ("g() && (y = 1);", [["call g 4:5", "assign y = 1 4:15"]]),
    ("f() || g(y = 1);", [["call f 4:5", "assign y = 1 4:16", "call g 4:12"]]),
    ("f() || g() ? 1 : h();", [["call f 4:5", "call g 4:12", "call h 4:22"]]),
    # and one a constant condition never selects is not
    ("0 ? f() : g(&x);", [["addr x 4:17", "call g 4:15"]]),
    ("1 || f(), 0 && g(y = 1);", [[]]),
    (
        "n = (value) {f(1), g(2)};",
        [["call f 4:18", "call g 4:24", "assign n = CompoundLit 4:7"]],
    ),
    # postfix operators bind before the prefix ones around them, and
    # prefix operators apply innermost first
    (
        "*p++ = -f(x)[i]->g;",
        [
            [
                "bump p", "deref Unary 4:5", "call f 4:13", "deref f() 4:17",
                "deref f()[] 4:20",
            ]
        ],
    ),
    (
        "++*p->q[j]-- = &*g(&y)(z)->h;",
        [
            [
                "deref p 4:9", "deref p->q 4:12", "deref Unary 4:7",
                "addr y 4:24", "call g 4:22", "deref g()() 4:30",
                "deref g()()->h 4:21",
            ]
        ],
    ),
    (
        "x = sizeof -(long)*p++ + !~q[0];",
        [["deref q 4:33", "assign x = Binary 4:7"]],
    ),
    # the comma operator: its operands left to right, in a `for` init and
    # step, and in a parenthesis
    (
        "for (i = 0, p = g(b); i < 4; i++, p++) *p = 0;",
        [
            ["assign i = 0 4:12", "call g 4:21", "assign p = g() 4:19"],
            [],
            ["bump i", "bump p"],
            ["deref p 4:44"],
        ],
    ),
    (
        "n = (g(), Field(a, 0));",
        [["call g 4:10", "call Field 4:15", "assign n = Binary 4:7"]],
    ),
]


def test_the_walk_meets_each_statements_effects_in_evaluation_order(parse_c):
    for stmt, want in OP_TABLE:
        src = "int g0 = h(1);\nvalue f(value a)\n{\n    " + stmt + "\n}\n"
        cfg = cfg_of(parse_c, src)
        got = [
            [shown for met in walked(cfg.fn, node.stmt) if (shown := _show(met))]
            for node in cfg.statement_nodes()
        ]
        assert got == want, stmt
