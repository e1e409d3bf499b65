"""Runtime-lock lattice, function summaries and the must-lock fixpoint."""

import itertools
import textwrap

import pytest
from conftest import StatementGraph

from stublint.analysis import BOTTOM, Walk, fresh, solve_function
from stublint.c_frontend.cfg import build_cfg
from stublint.lock_analysis import (
    LOCK_LATTICE_HEIGHT,
    LockState,
    SummaryError,
    join_lock,
    load_summaries,
    lock_leq,
    step_call,
)

B, H, R, U = (
    LockState.BOTTOM,
    LockState.HELD,
    LockState.RELEASED,
    LockState.UNKNOWN,
)
STATES = [B, H, R, U]


# -- lattice -------------------------------------------------------------------


# Written out by hand, not computed: the whole 4x4 join table.
JOIN_TABLE = {
    (B, B): B, (B, H): H, (B, R): R, (B, U): U,
    (H, B): H, (H, H): H, (H, R): U, (H, U): U,
    (R, B): R, (R, H): U, (R, R): R, (R, U): U,
    (U, B): U, (U, H): U, (U, R): U, (U, U): U,
}


def test_join_matches_fixture_table():
    for (a, b), want in JOIN_TABLE.items():
        assert join_lock(a, b) is want


def test_join_laws():
    for a, b in itertools.product(STATES, STATES):
        assert join_lock(a, b) is join_lock(b, a)
        for c in STATES:
            assert join_lock(join_lock(a, b), c) is join_lock(a, join_lock(b, c))
    for a in STATES:
        assert join_lock(a, a) is a
        assert join_lock(B, a) is a


def test_partial_order_is_the_diamond():
    for a in STATES:
        assert lock_leq(B, a)
        assert lock_leq(a, U)
        assert lock_leq(a, a)
    assert not lock_leq(H, R)
    assert not lock_leq(R, H)
    assert LOCK_LATTICE_HEIGHT == 2


# -- transfer ------------------------------------------------------------------

# state in -> (state out, finding severity or None); again written by hand.
ENTER_TABLE = {
    B: (R, None),  # unreachable in-state: no finding, intrinsic post-state
    H: (R, None),
    R: (R, "error"),
    U: (R, "warning"),
}
LEAVE_TABLE = {
    B: (H, None),
    H: (H, "error"),
    R: (H, None),
    U: (H, "warning"),
}


@pytest.mark.parametrize("state", STATES)
def test_enter_blocking_transfer(state):
    effects = load_summaries().lookup("caml_enter_blocking_section")
    out, finding = step_call("caml_enter_blocking_section", state, effects)
    want_out, want_sev = ENTER_TABLE[state]
    assert out is want_out
    assert (finding[1] if finding else None) == want_sev
    if finding:
        assert finding[0] == "UNBALANCED_LOCK"


@pytest.mark.parametrize("state", STATES)
def test_leave_blocking_transfer(state):
    effects = load_summaries().lookup("caml_leave_blocking_section")
    out, finding = step_call("caml_leave_blocking_section", state, effects)
    want_out, want_sev = LEAVE_TABLE[state]
    assert out is want_out
    assert (finding[1] if finding else None) == want_sev
    if finding:
        assert finding[0] == "UNBALANCED_LOCK"


def test_summary_effects_move_the_lock_and_judge_the_move():
    # a line's lock effect is judged as the blocking section's is, whatever
    # function it names
    lookup = load_summaries("takes: acquires_lock\ndrops: releases_lock\n").lookup
    assert step_call("drops", H, lookup("drops")) == (R, None)
    released = "drops but the runtime lock is already released"
    assert step_call("drops", R, lookup("drops")) == (
        R, ("UNBALANCED_LOCK", "error", released)
    )
    assert step_call("takes", R, lookup("takes")) == (H, None)
    held = "takes but the runtime lock is still held"
    assert step_call("takes", H, lookup("takes")) == (
        H, ("UNBALANCED_LOCK", "error", held)
    )
    assert step_call("plain_c_function", R, lookup("plain_c_function")) == (R, None)


# -- summaries -----------------------------------------------------------------


def test_builtin_summaries():
    table = load_summaries()
    # entering a blocking section lets other threads run, and so collect
    assert table.lookup("caml_enter_blocking_section") == frozenset(
        {"releases_lock", "may_gc"}
    )
    assert table.lookup("caml_leave_blocking_section") == frozenset({"acquires_lock"})
    # the caml_* prefix: runtime entry points want the lock and may collect
    assert table.lookup("caml_alloc") == frozenset({"requires_lock", "may_gc"})
    assert "may_gc" in table.lookup("caml_alloc_small")
    # exact entries beat the prefix
    assert table.lookup("caml_stat_free") == frozenset({"no_lock_needed"})
    # the raise helpers of `caml/fail.h` never return
    raises = frozenset({"requires_lock", "may_gc", "noreturn"})
    assert table.lookup("caml_invalid_argument") == raises
    assert table.lookup("caml_raise_not_found") == raises
    assert table.lookup("caml_failwith") == frozenset({"requires_lock", "noreturn"})
    assert table.noreturn("caml_failwith")
    assert table.noreturn("caml_invalid_argument")
    assert not table.noreturn("caml_alloc")
    assert not table.noreturn("caml_raise_if_exception")


def test_unknown_function_has_no_effects():
    assert load_summaries().lookup("xenevtchn_notify") == frozenset()


def test_user_text_overrides_builtins():
    table = load_summaries("caml_stat_free: requires_lock\n")
    assert table.lookup("caml_stat_free") == frozenset({"requires_lock"})


def test_later_line_overrides_earlier():
    table = load_summaries("f: may_gc\nf: no_lock_needed\n")
    assert table.lookup("f") == frozenset({"no_lock_needed"})


def test_longest_prefix_wins():
    text = "xen*: no_lock_needed\nxenevtchn_*: may_gc\n"
    table = load_summaries(text)
    assert table.lookup("xenevtchn_open") == frozenset({"may_gc"})
    assert table.lookup("xenstore_read") == frozenset({"no_lock_needed"})


def test_exact_beats_longer_prefix():
    text = "xenevtchn_not*: may_gc\nxenevtchn_notify: no_lock_needed\n"
    table = load_summaries(text)
    assert table.lookup("xenevtchn_notify") == frozenset({"no_lock_needed"})
    assert table.lookup("xenevtchn_notice") == frozenset({"may_gc"})


def test_summaries_never_apply_to_runtime_macros(parse_c, lint_c):
    src = (
        "value f(value a)\n{\n"
        "    CAMLparam1(a);\n"
        "    char *p = String_val(a);\n"
        "    Store_field(a, 0, Val_int(1));\n"
        "    p[0];\n"
        "    caml_enter_blocking_section();\n"
        "    Field(a, 0);\n"
        "    caml_leave_blocking_section();\n"
        "    CAMLreturn(a);\n}\n"
    )
    summaries = "Store_*: noreturn, releases_lock, may_gc\nField: requires_lock\n"
    # a `Store_field` that collected would make `p` stale at `p[0]`, and
    # one that ended the path would hide the finding at `Field`
    found = [d.render() for d in lint_c(src, summaries)]
    assert found == [d.render() for d in lint_c(src)]
    assert [f.split(": ")[2] for f in found] == ["VALUE_DEREF_UNLOCKED"]


# a CAMLprim defined in the unit, called with the lock released
CALLS_OWN_STUB = (
    "CAMLprim value g(value a)\n{\n    CAMLparam1(a);\n    CAMLreturn(a);\n}\n\n"
    "CAMLprim value f(value a)\n{\n    CAMLparam1(a);\n"
    "    caml_enter_blocking_section();\n"
    "    g(a);\n"
    "    caml_leave_blocking_section();\n"
    "    CAMLreturn(a);\n}\n"
)


@pytest.mark.parametrize(
    "summaries, rules",
    [
        (None, ["RUNTIME_CALL_UNLOCKED"]),
        ("g:\n", []),
        ("g: no_lock_needed\n", []),
        ("g*:\n", []),
    ],
)
def test_any_summary_line_overrides_the_own_camlprim_default(lint_c, summaries, rules):
    # a same-file CAMLprim needs the lock unless a line names it, even a
    # line with no effects
    assert [d.rule_id for d in lint_c(CALLS_OWN_STUB, summaries)] == rules


def test_findings_on_a_call_point_at_the_callee(lint_c):
    # the callee's first token, not the `(` after it
    calls = [(d.rule_id, d.line, d.column) for d in lint_c(CALLS_OWN_STUB)]
    assert calls == [("RUNTIME_CALL_UNLOCKED", 11, 5)]
    deref = CALLS_OWN_STUB.replace("    g(a);\n", "    Field(a, 0);\n")
    found = [(d.rule_id, d.line, d.column) for d in lint_c(deref)]
    assert found == [("VALUE_DEREF_UNLOCKED", 11, 5)]


@pytest.mark.parametrize(
    "head, body, want",
    [
        # released on every path: an error at the CAMLreturn
        (
            "CAMLprim value f(value a)",
            "CAMLparam1(a);\ncaml_enter_blocking_section();\nCAMLreturn(Val_unit);",
            [("UNBALANCED_LOCK", "error", 5)],
        ),
        # released on one path: a warning at the return
        (
            "value f(value a)",
            "if (Int_val(a))\n    caml_enter_blocking_section();\nreturn a;",
            [("UNBALANCED_LOCK", "warning", 5)],
        ),
        # taken back before the return
        (
            "CAMLprim value f(value a)",
            "caml_enter_blocking_section();\ncaml_leave_blocking_section();\nreturn a;",
            [],
        ),
        # a raise is not a return; calling it unlocked is its own finding
        (
            "CAMLprim value f(value a)",
            "caml_enter_blocking_section();\ncaml_failwith(\"f\");",
            [("RUNTIME_CALL_UNLOCKED", "error", 4)],
        ),
        # a C helper does not return to OCaml
        ("static int h(int n)", "caml_enter_blocking_section();\nreturn n;", []),
        # a CAMLreturn as a `for` step returns too
        (
            "CAMLprim value f(value a)",
            "caml_enter_blocking_section();\nfor (;; CAMLreturn(a)) {}",
            [("UNBALANCED_LOCK", "error", 4)],
        ),
        # a bare `CAMLreturn0;`, as `caml/memory.h` defines it, returns: the
        # early one leaves the released section, and no path goes on from it
        (
            "CAMLprim void f(value a)",
            "CAMLparam1(a);\ncaml_enter_blocking_section();\n"
            "if (Int_val(a) > 0) {\n    caml_leave_blocking_section();\n"
            "    CAMLreturn0;\n}\ncaml_leave_blocking_section();\nCAMLreturn0;",
            [],
        ),
        (
            "CAMLprim void f(value a)",
            "caml_enter_blocking_section();\nCAMLreturn0;",
            [("UNBALANCED_LOCK", "error", 4)],
        ),
    ],
)
def test_returning_to_ocaml_needs_the_lock(lint_c, head, body, want):
    src = head + "\n{\n" + textwrap.indent(body, "    ") + "\n}\n"
    found = [
        (d.rule_id, d.severity, d.line)
        for d in lint_c(src)
        if d.rule_id in ("UNBALANCED_LOCK", "RUNTIME_CALL_UNLOCKED")
    ]
    assert found == want


# Each body leaves the lock on every path that goes on past a raise.  The
# CFG falls through the raise, back to the loop's condition or into the next
# case; the solver ends the path there, so the stub is silent.  With a call
# that returns in place of the raise, a leave may find the lock held.
RAISE_IN_WHILE = """\
caml_enter_blocking_section();
while (poll_ready()) {
    caml_leave_blocking_section();
    failwith_xc("x");
}
caml_leave_blocking_section();
return Val_unit;"""

RAISE_IN_CASE = """\
caml_enter_blocking_section();
switch (Int_val(a)) {
case 0:
    caml_leave_blocking_section();
    caml_failwith("zero");
case 1:
    caml_leave_blocking_section();
    break;
default:
    caml_leave_blocking_section();
}
return Val_unit;"""

RAISE_IN_FOR = """\
int i;
caml_enter_blocking_section();
for (i = 0; i < 4; i++) {
    if (i == Int_val(a)) continue;
    caml_leave_blocking_section();
    caml_raise_not_found();
}
caml_leave_blocking_section();
return Val_unit;"""

RAISE_IN_IF = """\
CAMLparam1(a);
caml_enter_blocking_section();
if (Int_val(a) < 0) { caml_leave_blocking_section(); caml_raise_not_found(); }
caml_leave_blocking_section();
CAMLreturn(a);"""

MAY_BE_HELD = "caml_leave_blocking_section but the runtime lock may still be held"

# a raise as a `for` step ends the path back to the loop's head, so the
# enter finds the lock held on every path that reaches it
RAISE_AS_STEP = """\
for (;; caml_failwith("x"))
    caml_enter_blocking_section();"""


@pytest.mark.parametrize(
    "summaries, body, want",
    [
        ("failwith_xc: requires_lock, noreturn\n", RAISE_IN_WHILE, []),
        (None, RAISE_IN_WHILE, [(5, 9), (8, 5)]),
        (None, RAISE_IN_CASE, []),
        (None, RAISE_IN_CASE.replace("caml_failwith", "zero_error"), [(9, 9)]),
        (None, RAISE_IN_FOR, []),
        (
            None,
            RAISE_IN_FOR.replace("caml_raise_not_found", "not_found"),
            [(7, 9), (10, 5)],
        ),
        (None, RAISE_IN_IF, []),
        (None, RAISE_AS_STEP, []),
        # a user line replaces the raise helper's built-in one
        ("caml_raise_not_found: requires_lock\n", RAISE_IN_IF, [(6, 5)]),
    ],
)
def test_a_call_that_never_returns_ends_the_path(lint_c, summaries, body, want):
    src = "CAMLprim value f(value a)\n{\n" + textwrap.indent(body, "    ") + "\n}\n"
    found = [
        (d.severity, d.line, d.column, d.message)
        for d in lint_c(src, summaries)
        if d.rule_id == "UNBALANCED_LOCK"
    ]
    assert found == [("warning", line, col, MAY_BE_HELD) for line, col in want]


@pytest.mark.parametrize(
    "stmt",
    [
        'if (g()) { (void) caml_failwith("x"); caml_leave_blocking_section(); }',
        'if (g()) { f(caml_failwith("x")); caml_leave_blocking_section(); }',
        'if (g()) { h() ? caml_failwith("x") : caml_failwith("y");'
        " caml_leave_blocking_section(); }",
        'g() ? caml_failwith("x") : 0;',
        'g() ? (caml_enter_blocking_section(), caml_failwith("x")) : 0;',
        'g() && (caml_enter_blocking_section(), caml_failwith("x"), 1);',
    ],
)
def test_a_call_that_never_returns_ends_the_path_inside_an_expression(lint_c, stmt):
    # a cast, an argument or an arm: wherever the raise sits, no path goes
    # on past it, and every path that does holds the lock
    src = (
        "CAMLprim value f(value v)\n{\n    CAMLparam1(v);\n    long n;\n"
        f"    {stmt}\n"
        "    n = Long_val(Field(v, 0));\n"
        "    CAMLreturn(Val_long(n));\n}\n"
    )
    assert lint_c(src) == []


def test_a_release_in_an_arm_that_may_not_run_is_joined_as_in_an_if(lint_c):
    # `g() && A;` is `if (g()) A;`: the lock after it is the join of the
    # path that released it and the path that did not
    src = (
        "CAMLprim value f(value v)\n{\n    CAMLparam1(v);\n    long n;\n"
        "    FORM\n"
        "    n = Long_val(Field(v, 0));\n"
        "    caml_leave_blocking_section();\n"
        "    CAMLreturn(Val_long(n));\n}\n"
    )
    want = [
        ("VALUE_DEREF_UNLOCKED", "warning", 6, 18),
        ("UNBALANCED_LOCK", "warning", 7, 5),
    ]
    for form in (
        "g() && (caml_enter_blocking_section(), 1);",
        "if (g()) caml_enter_blocking_section();",
    ):
        found = lint_c(src.replace("FORM", form))
        assert [(d.rule_id, d.severity, d.line, d.column) for d in found] == want


def test_the_step_reads_runtime_facts_from_effects_not_names(lint_c):
    # enter collects and releases, the raise ends its path, leave takes the
    # lock back, and a second enter or leave is unbalanced: under lines that
    # copy those effects, renamed calls act alike
    src = (
        "CAMLprim value f(value a)\n{\n    CAMLparam1(a);\n"
        "    char *p = String_val(a);\n"
        "    caml_enter_blocking_section();\n"
        "    caml_enter_blocking_section();\n"
        "    if (Int_val(a) < 0) { caml_leave_blocking_section();"
        " caml_raise_not_found(); }\n"
        "    Field(a, 0);\n"
        "    caml_leave_blocking_section();\n"
        "    caml_leave_blocking_section();\n"
        "    *p = 0;\n"
        "    CAMLreturn(a);\n}\n"
    )
    renamed = (
        src.replace("caml_enter_blocking_section", "my_enter")
        .replace("caml_leave_blocking_section", "my_leave")
        .replace("caml_raise_not_found", "my_raise")
    )
    summaries = (
        "my_enter: releases_lock, may_gc\n"
        "my_leave: acquires_lock\n"
        "my_raise: requires_lock, may_gc, noreturn\n"
    )
    want = [
        ("UNBALANCED_LOCK", "error", 6, 5),
        ("VALUE_DEREF_UNLOCKED", "error", 8, 5),
        ("UNBALANCED_LOCK", "error", 10, 5),
        ("DERIVED_PTR_STALE", "error", 11, 5),
    ]
    for text, lines in ((src, None), (renamed, summaries)):
        found = [(d.rule_id, d.severity, d.line, d.column) for d in lint_c(text, lines)]
        assert found == want


def test_the_runtime_system_pair_moves_the_lock(lint_c):
    # OCaml 5's names for the blocking section (manual, "Parallel execution
    # of long-running C code") are built-in lines, not `caml_*` entry points
    src = (
        "CAMLprim value f(value v)\n{\n    CAMLparam1(v);\n    long n;\n"
        "    caml_release_runtime_system();\n"
        "    n = Long_val(Field(v, 0));\n"
        "    caml_acquire_runtime_system();\n"
        "    CAMLreturn(Val_long(n));\n}\n"
    )
    found = [(d.rule_id, d.severity, d.line, d.column) for d in lint_c(src)]
    assert found == [("VALUE_DEREF_UNLOCKED", "error", 6, 18)]


def test_sizeof_dereferences_nothing(lint_c):
    # `sizeof` does not evaluate its operand, so with the lock released
    # neither sizeof line reads a block, while the lines after them do
    src = (
        "CAMLprim value f(value v)\n{\n    CAMLparam1(v);\n    long n;\n"
        "    char *p = String_val(v);\n"
        "    caml_release_runtime_system();\n"
        "    n = sizeof(*p) + sizeof p[0];\n"
        "    n = sizeof(Field(v, 0));\n"
        "    n = *p;\n"
        "    n = Field(v, 0);\n"
        "    caml_acquire_runtime_system();\n"
        "    CAMLreturn(Val_long(n));\n}\n"
    )
    found = [(d.rule_id, d.line, d.column) for d in lint_c(src)]
    assert found == [("DERIVED_PTR_STALE", 9, 9), ("VALUE_DEREF_UNLOCKED", 10, 9)]


def test_a_release_after_a_condition_that_stores_moves_the_lock(lint_c):
    # `n > 0` reads the `n` that `n = g()` stored, so the release may run
    # and may not, as in the `if` it stands for: the acquire after it is of
    # a lock that may still be held, not of one still held
    src = (
        "CAMLprim value f(value v)\n{\n    CAMLparam1(v);\n    long n = 0;\n"
        "    long ok = (n = g()) && n > 0 && (caml_release_runtime_system(), 1);\n"
        "    caml_acquire_runtime_system();\n"
        "    CAMLreturn(Val_long(ok));\n}\n"
    )
    assert [(d.rule_id, d.severity, d.line, d.message) for d in lint_c(src)] == [
        (
            "UNBALANCED_LOCK",
            "warning",
            6,
            "caml_acquire_runtime_system but the runtime lock may still be held",
        )
    ]


@pytest.mark.parametrize(
    "summaries, calls, line, message",
    [
        (
            None,
            ["caml_release_runtime_system", "caml_release_runtime_system",
             "caml_acquire_runtime_system"],
            5,
            "caml_release_runtime_system but the runtime lock is already released",
        ),
        (
            "drops: releases_lock\ntakes: acquires_lock\n",
            ["drops", "drops", "takes"],
            5,
            "drops but the runtime lock is already released",
        ),
        (
            "drops: releases_lock\ntakes: acquires_lock\n",
            ["drops", "takes", "takes"],
            6,
            "takes but the runtime lock is still held",
        ),
    ],
    ids=["runtime-system", "summary-release", "summary-acquire"],
)
def test_a_second_release_or_acquire_is_unbalanced(
    lint_c, summaries, calls, line, message
):
    # the finding follows the effect, not the blocking section's names
    body = "".join(f"    {call}();\n" for call in calls)
    src = (
        "CAMLprim value f(value v)\n{\n    CAMLparam1(v);\n"
        + body
        + "    CAMLreturn(v);\n}\n"
    )
    found = [
        (d.rule_id, d.severity, d.line, d.column, d.message)
        for d in lint_c(src, summaries)
    ]
    assert found == [("UNBALANCED_LOCK", "error", line, 5, message)]


def test_a_static_value_helper_is_no_primitive(lint_c):
    # only `CAMLprim` makes a static function a primitive: the helper is
    # neither checked for CAMLparam nor for the lock it returns with
    body = "(value a)\n{\n    caml_enter_blocking_section();\n    return a;\n}\n"
    rules = ["MISSING_CAMLPARAM", "UNBALANCED_LOCK"]
    for head, want in [
        ("static value f", []),
        ("static inline value f", []),
        ("value f", rules),
        ("CAMLprim static value f", rules),
    ]:
        found = sorted(d.rule_id for d in lint_c(head + body) if d.rule_id in rules)
        assert found == want, head


def test_lookup_default_only_when_no_line_matches():
    table = load_summaries("g:\nh*:\n")
    assert table.lookup("g", None) == table.lookup("h1", None) == frozenset()
    assert table.lookup("k", None) is None
    assert table.lookup("k") == frozenset()


def test_comments_and_blanks_are_skipped():
    table = load_summaries("# header\n\nf: may_gc  # trailing\n")
    builtin = load_summaries()
    assert table.exact == {**builtin.exact, "f": frozenset({"may_gc"})}
    assert table.prefix == builtin.prefix


def test_summary_error_carries_line_number():
    # counted in the user's text, not after the built-in lines
    with pytest.raises(SummaryError) as exc:
        load_summaries("f: may_gc\ng: acquires_lock, releases_lock\n")
    assert exc.value.line == 2


def test_unknown_effect_rejected():
    with pytest.raises(SummaryError):
        load_summaries("f: holds_lock\n")


def test_missing_colon_rejected():
    with pytest.raises(SummaryError):
        load_summaries("just a sentence\n")


# -- fixpoint over real control flow -------------------------------------------


def solved(parse_c, src, summaries=None):
    unit = parse_c(src)
    table = load_summaries(summaries)
    cfg = build_cfg(unit.functions[0])
    return StatementGraph(cfg), table, solve_function(cfg, table)


def lock_at(cfg, heads, node, table):
    """The lock state at the entry of `node` of the statement-level view
    `cfg`: its block's head, moved by the product step over the nodes
    before it in the block."""
    block = next(b for b in cfg.blocks if any(n is node for n in b.nodes))
    state = heads[block.id]
    walk = Walk(cfg.fn, table)
    for prior in block.nodes[: [n.id for n in block.nodes].index(node.id)]:
        if prior.stmt is not None and state is not BOTTOM:
            state = walk.step(prior.stmt, fresh(state), [])
    return state[0]


def states_by_call(parse_c, src, summaries=None):
    """Map each statement's repr to its IN lock state."""
    cfg, table, fixpoint = solved(parse_c, src, summaries)
    out = {}
    for node in cfg.statement_nodes():
        out[repr(node.stmt)] = lock_at(cfg, fixpoint.heads, node, table)
    return cfg, table, fixpoint, out


def lock_findings(fixpoint):
    return [d for d in fixpoint.found if d.rule_id == "UNBALANCED_LOCK"]


def test_straight_line_blocking_section(parse_c):
    src = (
        "value f(value a)\n{\n"
        "    caml_enter_blocking_section();\n"
        "    slow_io();\n"
        "    caml_leave_blocking_section();\n"
        "    CAMLreturn(a);\n}\n"
    )
    cfg, table, fixpoint, states = states_by_call(parse_c, src)
    assert [states[k] for k in sorted(states, key=lambda r: "slow_io" in r)][-1] is R
    assert lock_at(cfg, fixpoint.heads, cfg.exit, table) is H
    assert fixpoint.found == []


def test_one_armed_release_joins_to_unknown(parse_c):
    src = (
        "value f(value a)\n{\n"
        "    if (g())\n"
        "        caml_enter_blocking_section();\n"
        "    probe();\n"
        "    CAMLreturn(a);\n}\n"
    )
    *_, states = states_by_call(parse_c, src)
    probe = next(v for k, v in states.items() if "probe" in k and "If" not in k)
    assert probe is U


def test_double_enter_is_flagged(parse_c):
    src = (
        "value f(value a)\n{\n"
        "    caml_enter_blocking_section();\n"
        "    caml_enter_blocking_section();\n"
        "    caml_leave_blocking_section();\n"
        "    CAMLreturn(a);\n}\n"
    )
    _, _, fixpoint = solved(parse_c, src)
    assert [(d.rule_id, d.severity, d.line) for d in lock_findings(fixpoint)] == [
        ("UNBALANCED_LOCK", "error", 4)
    ]


def test_leave_while_held_is_flagged(parse_c):
    src = "value f(value a)\n{\n    caml_leave_blocking_section();\n    CAMLreturn(a);\n}\n"
    _, _, fixpoint = solved(parse_c, src)
    assert [(d.rule_id, d.severity) for d in lock_findings(fixpoint)] == [
        ("UNBALANCED_LOCK", "error")
    ]


# Heights of the head lattices over the one variable `a` (a value
# parameter): lock 2; value facts, bottom then VALUE -> plain; constants,
# bottom then known -> unknown.
PRODUCT_HEIGHT = 2 + (1 + 1) + (1 + 1)


def test_loop_reaches_fixpoint_within_pop_budget(parse_c):
    src = (
        "value f(value a)\n{\n"
        "    while (g()) {\n"
        "        caml_enter_blocking_section();\n"
        "        slow_io();\n"
        "        caml_leave_blocking_section();\n"
        "    }\n"
        "    CAMLreturn(a);\n}\n"
    )
    cfg, table, fixpoint = solved(parse_c, src)
    assert fixpoint.pops <= len(cfg.blocks) * (PRODUCT_HEIGHT + 1)
    assert lock_at(cfg, fixpoint.heads, cfg.exit, table) is H


def test_unreachable_node_stays_bottom(parse_c):
    src = (
        "value f(value a)\n{\n"
        "    CAMLreturn(a);\n"
        "    probe();\n}\n"
    )
    cfg, table, fixpoint = solved(parse_c, src)
    probe = next(n for n in cfg.statement_nodes() if "probe" in repr(n.stmt))
    assert lock_at(cfg, fixpoint.heads, probe, table) is B


def test_labelled_block_cannot_be_skipped(lint_c):
    # the block under a label runs every time; it used to be lowered like an
    # `if`, whose skip edge left the lock "maybe still held" at the leave
    src = (
        "value f(value a)\n{\n"
        "    CAMLparam1(a);\n"
        "    int n = 0;\n"
        "    out: { caml_enter_blocking_section(); n = n + 1; }\n"
        "    caml_leave_blocking_section();\n"
        "    CAMLreturn(a);\n}\n"
    )
    assert lint_c(src) == []


def test_loop_findings_come_from_the_fixpoint_state(run_main, tmp_path):
    # The first pass over the loop body sees the lock released; the fixpoint,
    # after the back edge from the leave, sees it only possibly released.  A
    # finding judged on the first pass would be an error.
    stub = tmp_path / "loop.c"
    stub.write_text(
        "value f(value v, value c)\n{\n"
        "    CAMLparam2(v, c);\n"
        "    int n = 0;\n"
        "    caml_enter_blocking_section();\n"
        "    while (Int_val(c)) {\n"
        "    Field(v, 0);\n"
        "    caml_leave_blocking_section();\n"
        "    }\n"
        "    CAMLreturn(Val_unit);\n}\n"
    )
    code, out, _ = run_main(str(stub))
    assert [line.split(": ", 3)[:3] for line in out.splitlines()] == [
        [f"{stub}:7:5", "warning", "VALUE_DEREF_UNLOCKED"],
        [f"{stub}:8:5", "warning", "UNBALANCED_LOCK"],
        # when the loop runs no iteration, the stub returns with the lock out
        [f"{stub}:10:5", "warning", "UNBALANCED_LOCK"],
    ]
    assert code == 0
