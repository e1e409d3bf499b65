"""Per-variable value/pointer facts, dereference events, CAMLparam checks."""

import textwrap

import pytest
from conftest import errors_of

from stublint.value_safety import HEAP, PLAIN, STALE, VALUE, join_fact


def wrap(body: str) -> str:
    return (
        "#define _H(__h) (*((xenevtchn_handle **)Data_custom_val(__h)))\n"
        "value f(value a, value b)\n{\n"
        + textwrap.indent(textwrap.dedent(body), "    ")
        + "}\n"
    )


def rules(diags, severity=None):
    return [
        d.rule_id
        for d in diags
        if severity is None or d.severity == severity
    ]


# -- the value facts -----------------------------------------------------------

P, V, H, S = PLAIN, VALUE, HEAP, STALE

# Written out by hand, not computed: the whole 4x4 join table.
JOIN_TABLE = {
    (P, P): P, (P, V): P, (P, H): P, (P, S): P,
    (V, P): P, (V, V): V, (V, H): P, (V, S): P,
    (H, P): P, (H, V): P, (H, H): H, (H, S): S,
    (S, P): P, (S, V): P, (S, H): S, (S, S): S,
}


def test_join_matches_fixture_table():
    for (a, b), want in JOIN_TABLE.items():
        assert join_fact(a, b) is want, (a, b)


# -- dereference vs lock state -------------------------------------------------


def test_custom_block_deref_in_blocking_section(lint_c):
    diags = lint_c(
        wrap(
            """\
            int rc;
            caml_enter_blocking_section();
            rc = xenevtchn_notify(_H(a), Int_val(b));
            caml_leave_blocking_section();
            CAMLreturn(Val_unit);
            """
        )
    )
    assert rules(errors_of(diags)) == ["VALUE_DEREF_UNLOCKED"]
    assert errors_of(diags)[0].line == 6  # the expanded macro keeps its line


def test_same_deref_under_lock_is_fine(lint_c):
    diags = lint_c(
        wrap(
            """\
            int rc;
            rc = xenevtchn_notify(_H(a), Int_val(b));
            CAMLreturn(Val_unit);
            """
        )
    )
    assert errors_of(diags) == []


def test_int_val_is_not_a_dereference(lint_c):
    diags = lint_c(
        wrap(
            """\
            int rc;
            caml_enter_blocking_section();
            rc = slow_op(Int_val(b));
            caml_leave_blocking_section();
            CAMLreturn(Val_unit);
            """
        )
    )
    assert errors_of(diags) == []


def test_field_macros_count_as_derefs(lint_c):
    diags = lint_c(
        wrap(
            """\
            value x;
            caml_enter_blocking_section();
            x = Field(a, 0);
            caml_leave_blocking_section();
            CAMLreturn(x);
            """
        )
    )
    assert rules(errors_of(diags)) == ["VALUE_DEREF_UNLOCKED"]


# every block read, and the float-array store, dereferences its first
# argument
@pytest.mark.parametrize(
    "access",
    [
        "d = Double_val(a);",
        "d = Double_field(a, 0);",
        "Store_double_field(a, 0, d);",
        "n = Int32_val(a);",
        "n = Int64_val(a);",
        "n = Nativeint_val(a);",
        "n = Tag_val(a);",
        "n = Wosize_val(a);",
    ],
)
def test_block_reads_count_as_derefs(lint_c, access):
    body = (
        "double d = 0;\nlong n;\ncaml_enter_blocking_section();\n"
        f"{access}\ncaml_leave_blocking_section();\nCAMLreturn(Val_unit);\n"
    )
    diags = lint_c(wrap(body))
    assert rules(errors_of(diags)) == ["VALUE_DEREF_UNLOCKED"]
    assert errors_of(diags)[0].line == 7


def test_string_val_site_flagged_result_untracked(lint_c):
    held = lint_c(
        wrap(
            """\
            const char *p;
            p = String_val(a);
            use(p);
            CAMLreturn(Val_unit);
            """
        )
    )
    assert errors_of(held) == []
    released = lint_c(
        wrap(
            """\
            const char *p;
            caml_enter_blocking_section();
            p = String_val(a);
            caml_leave_blocking_section();
            CAMLreturn(Val_unit);
            """
        )
    )
    assert rules(errors_of(released)) == ["VALUE_DEREF_UNLOCKED"]


def test_runtime_call_needs_lock(lint_c):
    diags = lint_c(
        wrap(
            """\
            caml_enter_blocking_section();
            caml_gc_compaction(Val_unit);
            caml_leave_blocking_section();
            CAMLreturn(Val_unit);
            """
        )
    )
    assert rules(errors_of(diags)) == ["RUNTIME_CALL_UNLOCKED"]


def test_runtime_call_under_unknown_lock_is_a_warning(lint_c):
    diags = lint_c(
        wrap(
            """\
            if (Int_val(b))
                caml_enter_blocking_section();
            caml_gc_compaction(Val_unit);
            CAMLreturn(Val_unit);
            """
        )
    )
    assert "RUNTIME_CALL_UNLOCKED" in rules(diags, "warning")
    assert "RUNTIME_CALL_UNLOCKED" not in rules(diags, "error")


# -- staleness across GC points --------------------------------------------------


STALE_BODY = """\
struct mmap_interface *intf;
value result;
result = caml_alloc(4, Abstract_tag);
intf = (struct mmap_interface *) result;
caml_enter_blocking_section();
slow_op();
caml_leave_blocking_section();
intf->len = Int_val(b);
CAMLreturn(result);
"""


def test_heap_pointer_goes_stale_at_blocking_section(lint_c):
    diags = lint_c(wrap(STALE_BODY))
    errs = errors_of(diags)
    assert rules(errs) == ["DERIVED_PTR_STALE"]
    # flagged on the dereference after the section, lock already re-held:
    # staleness outranks the lock state
    assert errs[0].line == STALE_BODY.splitlines().index("intf->len = Int_val(b);") + 4


def test_allocation_is_a_gc_point_too(lint_c):
    diags = lint_c(
        wrap(
            """\
            struct mmap_interface *intf;
            value result;
            result = caml_alloc(4, Abstract_tag);
            intf = (struct mmap_interface *) result;
            result = caml_alloc(4, Abstract_tag);
            intf->len = 1;
            CAMLreturn(result);
            """
        )
    )
    assert rules(errors_of(diags)) == ["DERIVED_PTR_STALE"]


def test_a_gc_call_stales_the_reads_walked_after_it(lint_c):
    # C99 leaves the order of `+`'s operands unspecified; the walk takes
    # them left to right, as CIL does, so only the read after the call
    # is stale, and the mirrored statement reads the block before it
    diags = lint_c(
        wrap(
            """\
            long n;
            char *p = String_val(a);
            n = *p + caml_hash(a);
            n = caml_hash(a) + *p;
            CAMLreturn(Val_long(n));
            """
        )
    )
    assert [(d.rule_id, d.line) for d in errors_of(diags)] == [
        ("DERIVED_PTR_STALE", 7)
    ]


def test_a_gc_call_after_a_condition_that_stores_is_a_gc_point(lint_c):
    # `n > 0` reads the `n` that `n = g()` stored, not the 0 before it,
    # so the fold does not know whether caml_alloc runs
    diags = lint_c(
        wrap(
            """\
            long n = 0;
            long ok;
            char *p = String_val(a);
            ok = (n = g()) && n > 0 && caml_alloc(1, 0);
            ok = *p;
            CAMLreturn(Val_long(ok));
            """
        )
    )
    assert [(d.rule_id, d.line) for d in errors_of(diags)] == [
        ("DERIVED_PTR_STALE", 8)
    ]


def test_a_pointer_derived_in_an_arm_that_may_not_run_is_joined_as_in_an_if(lint_c):
    # on the path that skips the arm `p` holds no block, so the CFG's join
    # of the `if` form and the walk's join of the `?:` form forget it
    body = """\
        long n;
        char *p = 0;
        FORM
        caml_alloc(1, 0);
        n = *p;
        CAMLreturn(Val_long(n));
        """
    for form in ("g() ? (p = String_val(a)) : 0;", "if (g()) p = String_val(a);"):
        assert errors_of(lint_c(wrap(body.replace("FORM", form)))) == []


@pytest.mark.parametrize("read", ["*p++", "*p--", "*(p + 1)", "*(1 + p)", "*(p - 1)"])
def test_a_stale_pointer_is_named_through_its_arithmetic(lint_c, read):
    body = f"""\
        long n;
        char *p = String_val(a);
        caml_alloc(1, 0);
        n = {read};
        CAMLreturn(Val_long(n));
        """
    assert [d.message for d in errors_of(lint_c(wrap(body)))] == [
        "'p' points into an OCaml block but the GC may have moved it since"
        " the pointer was derived"
    ]


def test_rederiving_under_lock_resets_staleness(lint_c):
    diags = lint_c(
        wrap(
            """\
            struct mmap_interface *intf;
            value result;
            result = caml_alloc(4, Abstract_tag);
            caml_enter_blocking_section();
            slow_op();
            caml_leave_blocking_section();
            intf = Data_abstract_val(result);
            intf->len = Int_val(b);
            CAMLreturn(result);
            """
        )
    )
    assert errors_of(diags) == []


def test_derivation_without_lock_is_already_stale(lint_c):
    # storing a derived pointer while the lock is out means any later use
    # trusts an address the GC was free to invalidate
    diags = lint_c(
        wrap(
            """\
            char **p;
            caml_enter_blocking_section();
            p = Data_custom_val(a);
            caml_leave_blocking_section();
            use(*p);
            CAMLreturn(Val_unit);
            """
        )
    )
    assert rules(errors_of(diags)) == ["DERIVED_PTR_STALE"]


def test_address_taken_value_is_noted_and_untracked(lint_c):
    diags = lint_c(
        wrap(
            """\
            value v;
            v = caml_alloc(1, 0);
            register_root(&v);
            CAMLreturn(v);
            """
        )
    )
    assert errors_of(diags) == []
    assert any(d.rule_id == "NOTE" and "&" not in d.message for d in diags)


def test_an_address_is_judged_after_the_stores_before_it(lint_c):
    # `&p` is taken once `p` holds a derived pointer, so its address escapes;
    # `&v` is taken once the store of 2 has made `v` a plain C value
    notes = [
        (d.line, d.message)
        for d in lint_c(
            wrap(
                """\
                char *p;
                char **pp;
                value v;
                value *vp;
                p = String_val(a), pp = &p;
                v = 2, vp = &v;
                CAMLreturn(Val_unit);
                """
            )
        )
        if d.rule_id == "NOTE"
    ]
    assert notes == [
        (8, "address of 'p' escapes; it is no longer tracked as an OCaml value")
    ]


def test_opaque_statement_drops_heap_facts(lint_c):
    diags = lint_c(
        wrap(
            """\
            char **p;
            p = Data_custom_val(a);
            asm("nop");
            caml_enter_blocking_section();
            caml_leave_blocking_section();
            use(*p);
            CAMLreturn(Val_unit);
            """
        )
    )
    # the asm scrambles the tracked pointer; no stale report afterwards
    assert errors_of(diags) == []


# -- CAMLparam registration ------------------------------------------------------


def test_missing_camlparam_is_a_warning(lint_c):
    src = "value f(value a)\n{\n    return a;\n}\n"
    diags = lint_c(src)
    assert [(d.rule_id, d.severity, d.line) for d in diags] == [
        ("MISSING_CAMLPARAM", "warning", 1)
    ]


def test_leading_declarations_do_not_hide_camlparam(lint_c):
    src = (
        "value f(value a)\n{\n"
        "    int x;\n"
        "    struct foo *y;\n"
        "    CAMLparam1(a);\n"
        "    CAMLreturn(a);\n}\n"
    )
    assert errors_of(lint_c(src)) == []
    assert not [d for d in lint_c(src) if d.rule_id == "MISSING_CAMLPARAM"]


def test_an_initialized_declaration_runs_before_camlparam(lint_c):
    # its initializer executes, so the CAMLparam after it comes too late
    src = (
        "value f(value a)\n{\n"
        "    int n = 0;\n"
        "    CAMLparam1(a);\n"
        "    CAMLreturn(a);\n}\n"
    )
    assert [d.rule_id for d in lint_c(src)] == ["MISSING_CAMLPARAM"]


def test_camlparam_count_mismatch(lint_c):
    src = "value f(value a, value b)\n{\n    CAMLparam1(a);\n    CAMLreturn(a);\n}\n"
    diags = lint_c(src)
    assert [d.rule_id for d in diags] == ["CAMLPARAM_ARITY"]
    assert diags[0].severity == "warning"


def test_camlxparam_chain_counts(lint_c):
    src = (
        "value f(value a, value b, value c, value d, value e, value g, value h)\n"
        "{\n"
        "    CAMLparam5(a, b, c, d, e);\n"
        "    CAMLxparam2(g, h);\n"
        "    CAMLreturn(a);\n}\n"
    )
    assert lint_c(src) == []


def test_non_primitive_helper_needs_no_camlparam(lint_c):
    src = (
        "static xc_interface *xch_of_val(value v)\n"
        "{\n"
        "    xc_interface *xch = *(xc_interface **)Data_custom_val(v);\n"
        "    return xch;\n"
        "}\n"
    )
    assert lint_c(src) == []


def test_value_locals_alone_require_registration(lint_c):
    src = "value f(void)\n{\n    value tmp;\n    tmp = make();\n    return tmp;\n}\n"
    diags = lint_c(src)
    assert "MISSING_CAMLPARAM" in [d.rule_id for d in diags]
