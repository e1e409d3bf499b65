"""Local macro expansion: the piece that makes `_H(...)` visible."""

import pytest

from stublint.c_frontend.parser import MAX_NESTING
from stublint.c_frontend.preprocess import PreprocessError, preprocess_local


def placed(source):
    """(text, line, col) of each token the parser gets."""
    tokens = preprocess_local(source, "t.c").tokens
    return [(text, line, col) for _, text, line, col in tokens]


def kept_lines(source):
    """The lines the parser gets tokens from, each token at its column;
    the tokens of an expansion, which share the column of the macro's name,
    follow one another unspaced."""
    lines = {}
    for text, line, col in placed(source):
        kept = lines.get(line, "")
        lines[line] = kept + " " * (col - 1 - len(kept)) + text
    return lines


def test_cast_style_macro_expands_in_place():
    # every token of an expansion sits at the macro's name on disk
    src = "#define _H(__h) ((xenevtchn_handle *)(__h))\nx = _H(xce);\n"
    body = ["(", "(", "xenevtchn_handle", "*", ")", "(", "xce", ")", ")"]
    assert placed(src) == [
        ("x", 2, 1), ("=", 2, 3), *[(text, 2, 5) for text in body], (";", 2, 12)
    ]


def test_deref_style_macro_expands_in_place():
    src = (
        "#define _H(__h) (*((xenevtchn_handle **)Data_custom_val(__h)))\n"
        "_H(result) = xce;\n"
    )
    body = "( * ( ( xenevtchn_handle * * ) Data_custom_val ( result ) ) )".split()
    assert placed(src) == [
        *[(text, 2, 1) for text in body], ("=", 2, 12), ("xce", 2, 14), (";", 2, 17)
    ]


def test_object_like_macro():
    src = "#define LEN 16\nn = LEN;\n"
    assert placed(src) == [("n", 2, 1), ("=", 2, 3), ("16", 2, 5), (";", 2, 8)]


def test_expansion_is_single_level():
    # one level, no rescan: mutually referential macros cannot loop
    src = "#define A B\n#define B A\nx = A;\n"
    assert kept_lines(src) == {3: "x = B;"}


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
    assert placed(src) == [
        ("int", 5, 1), ("x", 5, 5), ("=", 5, 7), ("4", 5, 9), (";", 5, 13)
    ]


def test_continuations_keep_following_lines_in_place():
    src = "#define TWO \\\n 2\nint x = TWO;\n"
    assert placed(src) == [
        ("int", 3, 1), ("x", 3, 5), ("=", 3, 7), ("2", 3, 9), (";", 3, 12)
    ]


def test_includes_are_recorded_not_expanded():
    assert placed("#include <caml/mlvalues.h>\nint x;\n") == [
        ("int", 2, 1), ("x", 2, 5), (";", 2, 6)
    ]


def test_ifdef_selects_defined_branch():
    src = (
        "#define HAVE_FOO 1\n"
        "#ifdef HAVE_FOO\n"
        "int yes;\n"
        "#else\n"
        "int no;\n"
        "#endif\n"
    )
    assert kept_lines(src) == {3: "int yes;"}


def test_unknown_guard_takes_undefined_branch_with_note():
    src = "#ifdef CAML_INTERNALS\nint hidden;\n#else\nint shown;\n#endif\n"
    result = preprocess_local(src, "t.c")
    assert kept_lines(src) == {4: "int shown;"}
    assert any(d.rule_id == "NOTE" for d in result.notes)


def test_directive_notes_are_at_the_directives_hash():
    src = (
        "value f(value a)\n{\n"
        "    #if HAVE_THREADS\n"
        "    a = 1;\n"
        "  # elif X\n"
        "    #endif\n"
        "\t#define MAX(a, b) a\n"
        "    return a;\n}\n"
    )
    result = preprocess_local(src, "g.c")
    assert [(d.line, d.column, d.message.split()[1]) for d in result.notes] == [
        (3, 5, "'#if"),
        (5, 3, "'#elif"),
        (7, 2, "'MAX'"),
    ]


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
    # no comma operator in a constant expression (C99 6.6p3), and a bare
    # guard stops at the comma
    ("(1, 2)", "is unsupported (not an integer constant expression)"),
    ("1, 2", "is unsupported (unexpected token ',')"),
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
        assert (kept_lines(src), notes) == (
            {3: "int yes;"} if taken else {}, ["NOTE"] if note else []
        ), guard
    for guard, why in GUARD_NOTES:
        src = f"#if {guard}\nint yes;\n#endif\n"
        result = preprocess_local(src, "t.c")
        assert result.tokens == [], guard
        [note] = result.notes
        assert note.message.startswith(f"conditional '#if {guard}' {why}"), guard


def test_elif_guard_reports_its_own_note():
    src = "#if 0\nint a;\n#elif X\nint b;\n#else\nint c;\n#endif\n"
    result = preprocess_local(src, "t.c")
    assert kept_lines(src) == {6: "int c;"}
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
        assert list(kept_lines(src).values()) == kept, src
        assert result.notes == [], src


def test_undef_removes_macro():
    src = "#define N 1\n#undef N\nx = N;\n"
    assert kept_lines(src) == {3: "x = N;"}


def test_unbalanced_endif_is_fatal():
    with pytest.raises(PreprocessError):
        preprocess_local("#endif\n", "t.c")


def test_multi_parameter_macro_left_alone_with_note():
    src = "#define MAX(a, b) ((a) > (b) ? (a) : (b))\nx = MAX(1, 2);\n"
    result = preprocess_local(src, "t.c")
    assert kept_lines(src) == {2: "x = MAX(1, 2);"}
    assert any("MAX" in d.message for d in result.notes)


def test_strings_are_opaque_to_expansion():
    src = '#define Hi 1\ns = "Hi there";\n'
    assert kept_lines(src) == {2: 's = "Hi there";'}


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
        src = f"{defines}{line}\n"
        assert list(kept_lines(src).values()) == [after], line
