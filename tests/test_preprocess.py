"""Local macro expansion: the piece that makes `_H(...)` visible."""

import pytest

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


def test_if_expression_guard():
    src = "#define VER 5\n#if VER >= 5\nint v5;\n#endif\n"
    assert "int v5;" in expanded(src)


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
