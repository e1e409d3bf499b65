"""external-declaration scanning and arity computation."""

from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from mlgen import REGENERATE, golden_text

from stublint import ml_frontend
from stublint.ml_frontend import parse_ml_externals


def only(decls):
    assert len(decls) == 1
    return decls[0]


def test_tuple_argument_counts_once():
    src = (
        "external domain_assign_device:"
        " handle -> domid -> (int * int * int * int) -> unit\n"
        '  = "stub_xc_domain_assign_device"\n'
    )
    decls, errors = parse_ml_externals(src, "t.ml")
    assert errors == []
    decl = only(decls)
    assert decl.ocaml_name == "domain_assign_device"
    assert decl.byte_name == "stub_xc_domain_assign_device"
    assert decl.native_name is None
    assert decl.arity == 3


def test_unit_argument_is_one_argument():
    decls, _ = parse_ml_externals(
        'external init : unit -> handle = "stub_eventchn_init"\n', "t.ml"
    )
    assert only(decls).arity == 1


def test_two_names_split_byte_and_native():
    src = (
        "external add_nat: nat -> int -> int -> nat -> int -> int -> int -> int\n"
        '                = "add_nat_bytecode" "add_nat_native"\n'
    )
    decl = only(parse_ml_externals(src, "t.ml")[0])
    assert decl.arity == 7
    assert decl.byte_name == "add_nat_bytecode"
    assert decl.native_name == "add_nat_native"


def test_builtin_primitive_name():
    decl = only(parse_ml_externals('external id : \'a -> \'a = "%identity"', "t.ml")[0])
    assert decl.byte_name == "%identity"


def test_unboxed_attribute_changes_arg_kinds():
    src = 'external sq : float -> float = "sq_byte" "sq_native" [@@unboxed]\n'
    decl = only(parse_ml_externals(src, "t.ml")[0])
    assert decl.arg_kinds == (ml_frontend.UNBOXED_FLOAT,)
    assert decl.return_kind == ml_frontend.UNBOXED_FLOAT


def test_an_arrow_inside_an_attribute_payload_splits_no_segment():
    src = 'external f : float [@unboxed] [@attr a -> b] -> int = "f_b" "f_n"\n'
    decl = only(parse_ml_externals(src, "t.ml")[0])
    assert decl.arity == 1
    assert decl.arg_kinds == (ml_frontend.UNBOXED_FLOAT,)
    assert decl.return_kind == ml_frontend.BOXED


def test_plain_int_stays_boxed_kind():
    decl = only(parse_ml_externals('external f : int -> int = "f"', "t.ml")[0])
    assert decl.arg_kinds == (ml_frontend.BOXED,)


def test_surrounding_structure_is_skipped():
    src = (
        "type handle\n"
        "let doc = \"external nothing : unit -> unit\"\n"
        "(* external commented : unit -> unit = \"gone\" *)\n"
        'external real : handle -> int = "stub_real"\n'
    )
    decls, errors = parse_ml_externals(src, "t.ml")
    assert errors == []
    assert [d.ocaml_name for d in decls] == ["real"]


# a `"` in a char literal opens no string inside a comment, and a `'` that
# starts no char literal is only a quote
@pytest.mark.parametrize(
    "comment",
    [
        """(* the quote '"' *)""",
        r"""(* an escaped quote '\'' then '"' *)""",
        r"""(* a backslash '\\' then '"' *)""",
        r"""(* '\n is newline *)""",
    ],
)
def test_char_literals_in_comments(comment):
    src = comment + '\nexternal f : int -> int = "f"\nexternal g : int -> int = "g"\n'
    decls, errors = parse_ml_externals(src, "t.ml")
    assert errors == []
    assert [d.ocaml_name for d in decls] == ["f", "g"]


# C symbol names that would make the header and the harness fail to compile
NOT_C_IDENTIFIERS = ["f g", "f-g", "1abc", "", r"a\qb"]


@pytest.mark.parametrize("symbol", NOT_C_IDENTIFIERS)
@pytest.mark.parametrize("names", ['"{}"', '"f_byte" "{}"'])
def test_a_c_name_that_is_not_a_c_identifier_is_reported(symbol, names):
    src = (
        f"external f : int -> int = {names.format(symbol)}\n"
        'external g : int -> int = "g" "%identity"\n'
    )
    decls, errors = parse_ml_externals(src, "t.ml")
    assert [d.ocaml_name for d in decls] == ["g"]
    assert [(e.line, e.column) for e in errors] == [(1, 1)]
    assert f"{symbol!r} of external 'f' is not a C identifier" in errors[0].message


@pytest.mark.parametrize(
    "literal, text",
    [
        (r'"\\ \" \' \ ."', '\\ " \'  .'),
        (r'"\n\t\b\r"', "\n\t\b\r"),
        (r'"\065\x5f\o101\u{41}"', "A_AA"),
        ('"a\\\n \tb"', "ab"),  # a backslash-newline and the blanks after it
        ('"a\\\r\nb"', "ab"),
        # no escapes: kept as written
        (r'"\q\256\xg\o400\u{110000}"', r"\q\256\xg\o400\u{110000}"),
    ],
)
def test_string_escapes_are_decoded(literal, text):
    assert ml_frontend._string_value(literal) == text


# each module shape names the externals inside it, until its `end`; a
# module type names none
@pytest.mark.parametrize(
    "src, names",
    [
        ('module P = struct external q : int -> int = "p_q" end', ["P.q"]),
        (
            "module M : sig val f : int -> int -> int end = struct\n"
            '  external f : int -> int -> int = "m_f"\nend\n'
            'external g : int -> int = "g"',
            ["M.f", "g"],
        ),
        (
            "module rec R : sig end = struct\n"
            '  external g : int -> int = "r_g"\nend',
            ["R.g"],
        ),
        ('module T : S = struct external h : int -> int = "t_h" end', ["T.h"]),
        (
            "module T : S with type t = int = struct\n"
            '  external h : int -> int = "t_h"\nend',
            ["T.h"],
        ),
        ('module N : sig external k : int -> int = "n_k" end', ["N.k"]),
        (
            "module F (X : sig type t end) = struct\n"
            '  external z : int -> int = "f_z"\nend',
            ["F.z"],
        ),
        ('module type S = sig external w : int -> int = "s_w" end', ["w"]),
        # an alias binding ends at the next item, which names no module
        (
            "module A = B\n"
            'include struct external f : int -> int = "f" end',
            ["f"],
        ),
    ],
    ids=[
        "struct",
        "signed",
        "rec",
        "annotated",
        "with_type",
        "sig",
        "functor",
        "module_type",
        "alias",
    ],
)
def test_module_shapes_prefix_their_externals(src, names):
    decls, errors = parse_ml_externals(src + "\n", "t.ml")
    assert errors == []
    assert [d.ocaml_name for d in decls] == names


def test_malformed_external_is_reported_and_scan_continues():
    src = (
        "external broken : int -> int\n"  # no C name at all
        'external fine : int -> int = "ok"\n'
    )
    decls, errors = parse_ml_externals(src, "t.ml")
    assert [d.ocaml_name for d in decls] == ["fine"]
    assert len(errors) == 1
    assert errors[0].line == 1


def test_source_loc_points_at_declaration():
    src = "\n\nexternal f : int -> int = \"f\"\n"
    decl = only(parse_ml_externals(src, "t.ml")[0])
    assert decl.source_loc[0] == "t.ml"
    assert decl.source_loc[1] == 3


# arity == number of top-level arrows, whatever the atoms look like

ATOMS = st.sampled_from(
    ["int", "unit", "handle", "string", "(int * int)", "(int -> int)", "'a list"]
)


@given(st.lists(ATOMS, min_size=1, max_size=9))
def test_arity_counts_top_level_arrows(atoms):
    src = f'external f : {" -> ".join(atoms)} = "f"'
    decls, errors = parse_ml_externals(src, "t.ml")
    if len(atoms) == 1:
        assert decls == []
        assert [e.message for e in errors] == [
            "external 'f' must have a function type"
        ]
    else:
        assert errors == []
        assert only(decls).arity == len(atoms) - 1


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=7))
def test_every_external_in_a_file_is_found(count, noise):
    lines = []
    for i in range(count):
        if i == noise:
            lines.append("type t%d" % i)
        lines.append('external f%d : int -> int = "c_f%d"' % (i, i))
    decls, errors = parse_ml_externals("\n".join(lines) + "\n", "gen.ml")
    assert errors == []
    assert [d.ocaml_name for d in decls] == ["f%d" % i for i in range(count)]


GOLDEN = Path(__file__).parent / "data" / "golden_externals.txt"


def test_random_externals_match_golden():
    expected = GOLDEN.read_text().splitlines()
    actual = golden_text().splitlines()
    first = next(
        (i for i, pair in enumerate(zip(expected, actual)) if pair[0] != pair[1]),
        min(len(expected), len(actual)),
    )
    assert actual == expected, (
        f"externals differ from {GOLDEN.name} at line {first + 1}:\n"
        f"  golden: {expected[first] if first < len(expected) else '<end>'}\n"
        f"  actual: {actual[first] if first < len(actual) else '<end>'}\n"
        f"If the change is intended, regenerate with: {REGENERATE}"
    )
