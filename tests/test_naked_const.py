"""Constant propagation into value stores: the even/odd line."""

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


def test_cast_is_transparent(lint_c):
    assert naked_lines(lint_c, "    value v;\n    v = (value)4;\n") == [4]


def test_constant_flows_through_a_plain_variable(lint_c):
    body = "    int t;\n    value v;\n    t = 4;\n    v = t;\n"
    assert naked_lines(lint_c, body) == [6]


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
