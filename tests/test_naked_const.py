"""Constant propagation into value stores: the even/odd line."""

import pytest
from hypothesis import given, strategies as st


def naked_lines(lint_c, body):
    src = "value f(value a)\n{\n" + body + "    CAMLreturn(a);\n}\n"
    return [
        d.line for d in lint_c(src) if d.rule_id == "NAKED_POINTER"
    ]


def test_tag_cons_store_is_flagged(lint_c):
    src = (
        "value f(value a)\n{\n"
        "    CAMLparam1(a);\n"
        "    CAMLlocal1(obj);\n"
        "    obj = Tag_cons;\n"
        "    CAMLreturn(obj);\n}\n"
    )
    diags = [d for d in lint_c(src) if d.rule_id == "NAKED_POINTER"]
    assert [(d.severity, d.line) for d in diags] == [("error", 5)]


def test_val_emptylist_is_the_immediate_one(lint_c):
    src = (
        "value f(value a)\n{\n"
        "    CAMLparam1(a);\n"
        "    CAMLlocal1(obj);\n"
        "    obj = Val_emptylist;\n"
        "    CAMLreturn(obj);\n}\n"
    )
    assert not [d for d in lint_c(src) if d.rule_id == "NAKED_POINTER"]


def test_known_macro_constants(lint_c):
    assert naked_lines(lint_c, "    value v;\n    v = NULL;\n") == [4]
    assert naked_lines(lint_c, "    value v;\n    v = Val_unit;\n") == []
    assert naked_lines(lint_c, "    value v;\n    v = Val_true;\n") == []
    assert naked_lines(lint_c, "    value v;\n    v = Val_false;\n") == []


def test_val_int_encoding_is_always_odd(lint_c):
    assert naked_lines(lint_c, "    value v;\n    v = Val_int(21);\n") == []
    assert naked_lines(lint_c, "    value v;\n    v = Val_int(0);\n") == []


def test_initializer_checked_like_assignment(lint_c):
    assert naked_lines(lint_c, "    value v = 2;\n") == [3]
    assert naked_lines(lint_c, "    value v = 3;\n") == []
    # a store nested in an initializer is checked whatever the declared type
    assert naked_lines(lint_c, "    value v;\n    int n = (v = 2);\n") == [4]
    assert naked_lines(lint_c, "    value v;\n    int n;\n    n = (v = 2);\n") == [5]


def test_cast_is_transparent(lint_c):
    assert naked_lines(lint_c, "    value v;\n    v = (value)4;\n") == [4]


def test_constant_flows_through_a_plain_variable(lint_c):
    body = "    int t;\n    value v;\n    t = 4;\n    v = t;\n"
    assert naked_lines(lint_c, body) == [6]
    # a store is judged where it lands, against what the statement's earlier
    # stores left: the comma is a sequence point, so `n` is 2 when `v = n` runs
    body = "    int n;\n    value v;\n    n = 2, v = n;\n"
    assert naked_lines(lint_c, body) == [5]


def test_an_earlier_op_of_the_statement_is_seen_by_its_store(lint_c):
    # `n++` makes `n` unknown before `v = n - 1` lands; `v` is 3, odd
    body = "    int n;\n    value v;\n    n = 3;\n    n++, v = n - 1;\n"
    assert naked_lines(lint_c, body) == []


def test_a_store_folds_its_own_operand_against_the_constants_it_found(lint_c):
    # `t = t + 1` is folded from `t` 2, not from the 3 it leaves: `v` is 3
    body = "    long t;\n    value v;\n    t = 2;\n    v = (t = t + 1);\n"
    assert naked_lines(lint_c, body) == []
    # the condition reads `t` 1, before the arm's store: `v` is 0
    body = "    long t;\n    value v;\n    t = 1;\n    v = t ? (t = 0) : 3;\n"
    assert naked_lines(lint_c, body) == [6]


def test_a_store_in_a_call_that_never_returns_is_still_judged(lint_c):
    body = '    value v;\n    caml_failwith((v = 4, "boom"));\n'
    assert naked_lines(lint_c, body) == [4]


def test_a_compound_assignment_is_no_constant(lint_c):
    # `n += 2` holds n + 2, not 2; with `n` unknown, so is `v`
    body = "    int n;\n    value v;\n    n = g();\n    v = (n += 2);\n"
    assert naked_lines(lint_c, body) == []
    # with `n` 1, `v` is 3, odd; the fold knows no compound operator
    body = "    int n;\n    value v;\n    n = 1;\n    v = (n += 2);\n"
    assert naked_lines(lint_c, body) == []


def test_a_compound_assignment_into_a_value_is_judged(lint_c):
    # `v -= 1` folds `v - 1` from the 1 `v` held: the store leaves 0
    body = "    value v;\n    v = Val_unit;\n    v -= 1;\n"
    assert naked_lines(lint_c, body) == [5]
    # the constant a compound store leaves flows on like any other
    body = "    int n;\n    value v;\n    n = 1;\n    n <<= 2;\n    v = n;\n"
    assert naked_lines(lint_c, body) == [7]
    body = "    value v;\n    v = Val_unit;\n    v += 2;\n"
    assert naked_lines(lint_c, body) == []


# Each form with whether its store runs: None when the fold does not know
# the condition, else whether the constant condition selects the store.
# A condition that moves a constant is unknown: folded against the
# constants before it, `s = 0` would make each of the last three select
# nothing, though `s` holds g()'s result or 1 when it is tested.
MAY_NOT_RUN = [
    ("g() ? ({}) : 3;", None),
    ("g() ? 3 : ({});", None),
    ("g() && ({});", None),
    ("g() || ({});", None),
    ("1 ? ({}) : 3;", True),
    ("0 ? 3 : ({});", True),
    ("1 && ({});", True),
    ("0 || ({});", True),
    ("0 ? ({}) : 0;", False),
    ("1 ? 3 : ({});", False),
    ("0 && ({});", False),
    ("1 || ({});", False),
    ("s = 0; (s = g()) && s ? ({}) : 3;", None),
    ("s = 0; (s = g()) && s > 0 && ({});", None),
    ("s = 0; ((s = 1) && s) ? ({}) : 0;", None),
]


@pytest.mark.parametrize("form, runs", MAY_NOT_RUN, ids=[f for f, _ in MAY_NOT_RUN])
def test_a_store_that_may_not_run_leaves_the_join_of_both_outcomes(
    lint_c, form, runs
):
    # `t` is 1 when the store's arm or operand does not run, 0 when it does
    body = f"    long t = 1;\n    value w;\n    {form.format('t = 0')}\n    w = t;\n"
    assert naked_lines(lint_c, body) == ([6] if runs else [])
    # where both outcomes agree, the constant survives
    body = f"    long t = 2;\n    value w;\n    {form.format('t = 2')}\n    w = t;\n"
    assert naked_lines(lint_c, body) == [6]
    # the rest of the arm or operand still sees its store; an arm that
    # never runs judges nothing
    body = f"    long t = 1;\n    value w;\n    {form.format('t = 0, w = t')}\n"
    assert naked_lines(lint_c, body) == ([] if runs is False else [5])
    body = f"    value u;\n    {form.format('u = 2')}\n"
    assert naked_lines(lint_c, body) == ([] if runs is False else [4])


def test_each_arm_starts_from_the_constants_before_it(lint_c):
    # both arms store 2, so `t` is 2 whichever runs
    body = "    long t = 1;\n    value w;\n    g() ? (t = 2) : (t = 2);\n    w = t;\n"
    assert naked_lines(lint_c, body) == [6]
    # the else arm runs only when the then arm did not: `t` is still 2
    body = "    long t = 2;\n    value w;\n    g() ? (t = 1) : (w = t);\n"
    assert naked_lines(lint_c, body) == [5]


def test_conflicting_branch_values_are_unknown(lint_c):
    body = (
        "    int t;\n"
        "    value v;\n"
        "    if (g()) t = 2; else t = 4;\n"
        "    v = t;\n"
    )
    # both branch values are even, but the flat lattice forgets on conflict;
    # soundness can miss, it must not invent
    assert naked_lines(lint_c, body) == []


def test_agreeing_branch_values_survive_the_join(lint_c):
    body = (
        "    int t;\n"
        "    value v;\n"
        "    if (g()) t = 2; else t = 2;\n"
        "    v = t;\n"
    )
    assert naked_lines(lint_c, body) == [6]


def test_unknown_rhs_is_never_flagged(lint_c):
    assert naked_lines(lint_c, "    value v;\n    v = g();\n") == []
    assert naked_lines(lint_c, "    value v;\n    v = a;\n") == []


def test_allocation_results_are_exempt(lint_c):
    body = "    value v;\n    v = caml_alloc(1, 0);\n"
    assert naked_lines(lint_c, body) == []


def test_stores_to_non_value_destinations_ignored(lint_c):
    assert naked_lines(lint_c, "    int n;\n    n = 4;\n") == []
    assert naked_lines(lint_c, "    char *p;\n    p = NULL;\n") == []
    # a declaration's own store makes a C variable, though it shadows the
    # value parameter `a`
    assert naked_lines(lint_c, "    { int a = 4; }\n") == []


def test_arithmetic_folding(lint_c):
    assert naked_lines(lint_c, "    value v;\n    v = 1 + 1;\n") == [4]
    assert naked_lines(lint_c, "    value v;\n    v = (1 << 3) | 1;\n") == []
    assert naked_lines(lint_c, "    value v;\n    v = 7 - 1;\n") == [4]


def test_hex_literals_keep_their_f_digits(lint_c):
    # 0x10F is 271, odd; 0x2F - 1 is 46, even
    assert naked_lines(lint_c, "    value v;\n    v = 0x10F;\n") == []
    assert naked_lines(lint_c, "    value v;\n    v = 0x2F - 1;\n") == [4]


def test_octal_literals_are_octal(lint_c):
    # 010 is 8, even; 011 is 9, odd
    assert naked_lines(lint_c, "    value v;\n    v = 010;\n") == [4]
    assert naked_lines(lint_c, "    value v;\n    v = 011;\n") == []


def test_an_underscore_is_no_digit_separator(lint_c):
    # C has none, so `1_0` is no constant the fold knows
    assert naked_lines(lint_c, "    value v;\n    v = 1_0;\n") == []
    assert naked_lines(lint_c, "    value v;\n    v = 10;\n") == [4]


@given(st.integers(min_value=0, max_value=4095))
def test_literal_parity_decides(k):
    # tiny inline mirror of the corpus-scale oracle
    from stublint.analysis import solve_function
    from stublint.c_frontend.parser import parse_unit
    from stublint.c_frontend.cfg import build_cfg
    from stublint.lock_analysis import load_summaries

    src = f"value f(value a)\n{{\n    value v;\n    v = {k};\n    return a;\n}}\n"
    cfg = build_cfg(parse_unit(src, "gen.c").functions[0])
    diags = solve_function(cfg, load_summaries()).found
    assert bool(diags) == (k % 2 == 0)


@pytest.mark.parametrize(
    "expr, k",
    [
        ("'b'", 98),
        ("2 * 3", 6),
        ("9 / 2", 4),
        ("-9 / 2", -4),
        ("-6 % 4", -2),
        ("6 & 2", 2),
        ("3 ^ 1", 2),
        ("9 >> 1", 4),
        ("~1", -2),
        ("!3", 0),
        ("3 < 2", 0),
        ("1 == 2", 0),
        ("0 && 1", 0),
        ("0 || 0", 0),
        ("1 ? 4 : 3", 4),
        ("0 ? 3 : 4", 4),
    ],
)
def test_every_folded_operator_reaches_the_store(lint_c, expr, k):
    """A stored constant is folded as an `#if` guard is: char constants and
    every operator but the comma, `/` and `%` truncating toward zero, and
    `?:` by its condition."""
    src = f"value f(value a)\n{{\n    value v;\n    v = {expr};\n    return a;\n}}\n"
    diags = [d for d in lint_c(src) if d.rule_id == "NAKED_POINTER"]
    assert [(d.line, d.message.split(" stored")[0]) for d in diags] == [
        (4, f"constant {k}")
    ]


@pytest.mark.parametrize(
    "expr",
    ["1 << 100", "1 << -1", "1 / 0", "4 % 0", "'\\xff'", "2.0", "1 ? 2.0 : 3"],
)
def test_what_c_leaves_undefined_is_no_constant(lint_c, expr):
    # a shift by a count outside 0..63 was folded to a constant once
    assert naked_lines(lint_c, f"    value v;\n    v = {expr};\n") == []


def test_an_unknown_operand_is_unknown_unless_the_other_decides(lint_c):
    assert naked_lines(lint_c, "    value v;\n    v = g() + 2;\n") == []
    assert naked_lines(lint_c, "    value v;\n    v = 0 * g();\n") == []
    assert naked_lines(lint_c, "    value v;\n    v = 0 && g();\n") == [4]
    assert naked_lines(lint_c, "    value v;\n    v = g() && 0;\n") == [4]
    assert naked_lines(lint_c, "    value v;\n    v = g() || 0;\n") == []
    # an unknown condition takes its arms' value when they agree
    assert naked_lines(lint_c, "    value v;\n    v = g() ? 2 : 2;\n") == [4]
    assert naked_lines(lint_c, "    value v;\n    v = g() ? 2 : 4;\n") == []
    # `&&`, `||` and `?:` fold only the operands they select
    assert naked_lines(lint_c, "    value v;\n    v = 1 ? 2 : 1 / 0;\n") == [4]
    assert naked_lines(lint_c, "    value v;\n    v = 0 && 1 / 0;\n") == [4]


def test_val_int_of_a_char_constant_is_odd(lint_c):
    assert naked_lines(lint_c, "    value v;\n    v = Val_int('a');\n") == []
    assert naked_lines(lint_c, "    value v;\n    v = Val_int('a') - 1;\n") == [4]
