"""Local macro expansion: the piece that makes `_H(...)` visible."""

import pytest

from stublint.c_frontend.parser import MAX_NESTING
from stublint.c_frontend.preprocess import PreprocessError, preprocess_local


def expanded(source):
    return preprocess_local(source, "t.c").text


def test_cast_style_macro_expands_in_place():
    src = "#define _H(__h) ((xenevtchn_handle *)(__h))\nx = _H(xce);\n"
    assert "x = ((xenevtchn_handle *)(xce));" in expanded(src)


def test_deref_style_macro_expands_in_place():
    src = (
        "#define _H(__h) (*((xenevtchn_handle **)Data_custom_val(__h)))\n"
        "_H(result) = xce;\n"
    )
    assert "(*((xenevtchn_handle **)Data_custom_val(result))) = xce;" in expanded(src)


def test_object_like_macro():
    src = "#define LEN 16\nn = LEN;\n"
    assert "n = 16;" in expanded(src)


def test_expansion_is_single_level():
    # one level, no rescan: mutually referential macros cannot loop
    src = "#define A B\n#define B A\nx = A;\n"
    assert "x = B;" in expanded(src)


def test_self_recursive_define_is_rejected():
    with pytest.raises(PreprocessError):
        preprocess_local("#define X (X + 1)\n", "t.c")


def test_line_numbers_survive():
    src = (
        "#include <caml/mlvalues.h>\n"
        "/* a comment\n"
        "   spanning lines */\n"
        "#define FOUR 4\n"
        "int x = FOUR;\n"
    )
    result = preprocess_local(src, "t.c")
    lines = result.text.split("\n")
    assert len(lines) == len(src.split("\n"))
    assert lines[4] == "int x = 4;"


def test_continuations_keep_following_lines_in_place():
    src = "#define TWO \\\n 2\nint x = TWO;\n"
    lines = preprocess_local(src, "t.c").text.split("\n")
    assert len(lines) == len(src.split("\n"))
    assert lines[2] == "int x = 2;"


def test_includes_are_recorded_not_expanded():
    result = preprocess_local("#include <caml/mlvalues.h>\nint x;\n", "t.c")
    assert "include" not in result.text


def test_ifdef_selects_defined_branch():
    src = (
        "#define HAVE_FOO 1\n"
        "#ifdef HAVE_FOO\n"
        "int yes;\n"
        "#else\n"
        "int no;\n"
        "#endif\n"
    )
    text = expanded(src)
    assert "int yes;" in text
    assert "int no;" not in text


def test_unknown_guard_takes_undefined_branch_with_note():
    src = "#ifdef CAML_INTERNALS\nint hidden;\n#else\nint shown;\n#endif\n"
    result = preprocess_local(src, "t.c")
    assert "int shown;" in result.text
    assert "int hidden;" not in result.text
    assert any(d.rule_id == "NOTE" for d in result.notes)


def _parenthesized(n):
    return "(" * n + "1" + ")" * n


# (guard, branch taken, NOTE given), with VER defined as 5
GUARDS = [
    ("VER >= 5", True, False),
    ("1 + 2 * 3 == 7", True, False),
    ("(1 + 2) * 3 == 9", True, False),
    ("10 - 4 - 3 == 3 && 12 / 2 / 3 == 2", True, False),
    ("2 | 1 ^ 3 & 1", True, False),
    ("1 || 0 && 0", True, False),
    ("-VER + 6 == ~0 + 2 && !0", True, False),
    ("VER < 6 == 1", True, False),
    ("1 << 4 == 16 && 256 >> 4 == 16 && VER % 3 == 2", True, False),
    ("defined(VER) && defined VER", True, False),
    ("defined(X)", False, True),
    ("!defined X", True, True),
    ("0x1F", True, False),
    ("1\t+ 1", True, False),
    ("--1", False, True),  # C's decrement token, not two minus signs
    ("1f == 10", False, False),
    ("UNKNOWN + 1", True, True),
    ("UNKNOWN", False, True),
    ("1 ? 2 : 3", True, False),
    ("0 ? 1 : 2", True, False),  # folds to 2
    ("(0 ? 1 : 2) == 2 && (1 ? 0 ? 3 : 4 : 5) == 4", True, False),
    ("0 ? 1 / 0 : 1", True, False),  # only the selected operand folds
    ("1 ? 1 / 0 : 1", False, True),
    ("1 || 1 / 0", True, False),  # && and || short-circuit
    ("1 || (1 << 99)", True, False),
    ("0 && (1 / 0)", False, False),
    ("0 || 1 / 0", False, True),
    ("1 +", False, True),
    ("1 << 63 > 0 && 1 >> 0", True, False),
    ("1 << 64", False, True),  # a shift C leaves undefined
    ("1 << (1 << 70)", False, True),
    ("1 << 10000000000", False, True),  # refused, never evaluated
    ("1 >> -1", False, True),
    ("-7 / 2 == -3 && 7 / -2 == -3", True, False),  # C99 truncates
    ("-7 % 2 == -1 && 7 % -2 == 1", True, False),
    ("010 == 8", True, False),  # octal
    # char constants: one character, or one simple or octal escape
    ("'a' == 97", True, False),
    ("'\\n' == 10", True, False),
    ("L'a' == 97", True, False),  # a prefix names no macro
    ("'\\0'", False, False),
    ("'\\x41' == 65 && '\\x7f' == 127 && '\\x041' == 65", True, False),  # hex
    # a parenthesis and the operand in it are a level each, the outer
    # operand one more
    (_parenthesized((MAX_NESTING - 1) // 2), True, False),  # at the cap
    (_parenthesized((MAX_NESTING + 1) // 2), False, True),
    (_parenthesized(3000), False, True),
]


# What the note on an unsupported guard says after the guard: a guard that
# names an unknown macro depends on it, one that names none says why the
# fold gave up on it.
UNKNOWN = "depends on macros not defined in this file"
GUARD_NOTES = [
    ("1 << 64", "is unsupported (shift count 64 out of range 0..63)"),
    ("1 ? 1 / 0 : 1", "is unsupported (division by zero)"),
    (
        _parenthesized(3000),
        f"is unsupported (nested more than {MAX_NESTING} levels deep)",
    ),
    ("--1", "is unsupported (not an integer constant expression)"),
    ("1 +", "is unsupported (unexpected token '<eof>')"),
    ("UNKNOWN / 0", UNKNOWN),
    ("defined(X) << 64", UNKNOWN),
    # a literal names no macro, not even after `defined`
    ('"a"', "is unsupported (not an integer constant expression)"),
    ('"defined X"', "is unsupported (not an integer constant expression)"),
    ("'ab'", "is unsupported (char constant 'ab' is not one character or escape)"),
    ("'\\q'", "is unsupported (char constant '\\q' is not one character or escape)"),
    ("'\\7' + 'é'", "is unsupported (char constant 'é' is past ASCII)"),
    ("'\\x80'", "is unsupported (char constant '\\x80' is past ASCII)"),
    (
        "'\\x41\\x42'",
        "is unsupported (char constant '\\x41\\x42' is not one character or escape)",
    ),
]


def test_if_expression_guard():
    for guard, taken, note in GUARDS:
        src = f"#define VER 5\n#if {guard}\nint yes;\n#endif\n"
        result = preprocess_local(src, "t.c")
        notes = [d.rule_id for d in result.notes]
        assert ("int yes;" in result.text, notes) == (
            taken, ["NOTE"] if note else []
        ), guard
    for guard, why in GUARD_NOTES:
        src = f"#if {guard}\nint yes;\n#endif\n"
        result = preprocess_local(src, "t.c")
        assert "int yes;" not in result.text, guard
        [note] = result.notes
        assert note.message.startswith(f"conditional '#if {guard}' {why}"), guard


def test_elif_guard_reports_its_own_note():
    src = "#if 0\nint a;\n#elif X\nint b;\n#else\nint c;\n#endif\n"
    result = preprocess_local(src, "t.c")
    assert "int c;" in result.text
    assert "int a;" not in result.text and "int b;" not in result.text
    assert [d.message.split(" depends")[0] for d in result.notes] == [
        "conditional '#elif X'"
    ]


# (source, lines kept): under a dead parent a region stays dead, whatever
# its own `#elif` or `#else` says, and its guards give no NOTE
DEAD_PARENT = [
    ("#if 0\n#if 0\na;\n#elif 1\nb;\n#endif\n#endif\n", []),
    ("#if 0\n#if 0\na;\n#else\nb;\n#endif\n#endif\n", []),
    ("#if 0\n#if 1\n#if 1\na;\n#endif\n#else\nb;\n#endif\n#endif\n", []),
    ("#if 1\n#else\n#if 0\n#elif X\nb;\n#endif\n#endif\n", []),
    ("#if 1\n#if 0\na;\n#elif 1\nb;\n#else\nc;\n#endif\n#endif\n", ["b;"]),
    ("#if 0\n#elif 1\n#if 0\na;\n#else\nb;\n#endif\n#endif\n", ["b;"]),
]


def test_nothing_revives_a_region_under_a_dead_parent():
    for src, kept in DEAD_PARENT:
        result = preprocess_local(src, "t.c")
        assert [line for line in result.text.split("\n") if line] == kept, src
        assert result.notes == [], src


def test_undef_removes_macro():
    src = "#define N 1\n#undef N\nx = N;\n"
    assert "x = N;" in expanded(src)


def test_unbalanced_endif_is_fatal():
    with pytest.raises(PreprocessError):
        preprocess_local("#endif\n", "t.c")


def test_multi_parameter_macro_left_alone_with_note():
    src = "#define MAX(a, b) ((a) > (b) ? (a) : (b))\nx = MAX(1, 2);\n"
    result = preprocess_local(src, "t.c")
    assert "x = MAX(1, 2);" in result.text
    assert any("MAX" in d.message for d in result.notes)


def test_strings_are_opaque_to_expansion():
    src = '#define Hi 1\ns = "Hi there";\n'
    assert 's = "Hi there";' in expanded(src)


# (definitions, line, line after expansion): a literal, with its prefix, and
# a preprocessing number are whole words that name no macro
UNEXPANDED = [
    ("#define UL 5\n#define x1F 7\n", "long x = 1UL + 0x1F;", "long x = 1UL + 0x1F;"),
    ('#define MSG "MSG"\n', "s = MSG;", 's = "MSG";'),
    ("#define N 2\n", 's = u8"N" L"N" + N;', 's = u8"N" L"N" + 2;'),
    ("#define E 9\n", "d = 1.5e+E + .5E;", "d = 1.5e+E + .5E;"),
]


def test_literals_and_numbers_name_no_macro():
    for defines, line, after in UNEXPANDED:
        assert expanded(f"{defines}{line}\n").split("\n")[-2] == after, line
