"""End-to-end command line behavior: exit codes, outputs, suppression."""

import contextlib
import gc
import io
import json
import re

import jsonschema
import pytest
from conftest import CORPUS
from hypothesis import given, strategies as st

from stublint.cli import main

CLEAN_C = "value ok(value a)\n{\n    CAMLparam1(a);\n    CAMLreturn(a);\n}\n"
CLEAN_ML = 'external ok : unit -> unit = "ok"\n'
WARN_C = "value warn_only(value a)\n{\n    return a;\n}\n"
BAD_C = (
    "value bad(value a)\n{\n"
    "    CAMLparam1(a);\n"
    "    CAMLlocal1(v);\n"
    "    v = Tag_cons;\n"
    "    CAMLreturn(v);\n}\n"
)


@pytest.fixture
def proj(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return tmp_path, write


def test_clean_run_exits_zero(proj, run_main):
    _, write = proj
    code, out, err = run_main(write("ok.ml", CLEAN_ML), write("ok.c", CLEAN_C))
    assert code == 0
    assert out == "" and err == ""


def test_findings_exit_one_and_render_one_line_each(proj, run_main):
    _, write = proj
    code, out, _ = run_main(write("bad.c", BAD_C))
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert "bad.c:5:" in lines[0]
    assert "error: NAKED_POINTER:" in lines[0]


def test_column_after_a_block_comment_is_the_column_on_disk(proj, run_main):
    _, write = proj
    store = "    /* a long comment here */ v = 0;"
    path = write("shifted.c", BAD_C.replace("    v = Tag_cons;", store))
    code, out, _ = run_main(path)
    assert code == 1
    col = store.index("=") + 1
    assert out.startswith(f"{path}:5:{col}: error: NAKED_POINTER:")


def test_warnings_gate_only_under_strict(proj, run_main):
    _, write = proj
    path = write("warn.c", WARN_C)
    code, out, _ = run_main(path)
    assert code == 0
    assert "MISSING_CAMLPARAM" in out
    strict_code, _, _ = run_main(path, "--strict")
    assert strict_code == 1


def test_rule_suppression(proj, run_main):
    _, write = proj
    path = write("bad.c", BAD_C)
    code, out, _ = run_main(path, "--rule", "NAKED_POINTER=off")
    assert code == 0
    assert "NAKED_POINTER" not in out


def test_bad_rule_flag_is_fatal(proj, run_main):
    _, write = proj
    code, _, err = run_main(write("ok.c", CLEAN_C), "--rule", "NAKED_POINTER=maybe")
    assert code == 2
    assert "stublint: error:" in err


def test_unknown_extension_is_fatal(proj, run_main):
    _, write = proj
    code, _, err = run_main(write("stubs.cpp", "int x;"))
    assert code == 2
    assert "stubs.cpp" in err


def test_missing_file_is_fatal(run_main, tmp_path):
    code, _, err = run_main(str(tmp_path / "nope.c"))
    assert code == 2
    assert "cannot read" in err


def test_lex_error_is_fatal_not_a_traceback(proj, run_main):
    _, write = proj
    path = write("stray.c", "value f(value a)\n{\n    return a @ 1;\n}\n")
    code, out, err = run_main(path)
    assert code == 2
    assert out == ""
    assert err == f"stublint: error: {path}: 3:14: unexpected character '@'\n"


def test_out_of_range_shift_in_a_guard_is_not_a_traceback(proj, run_main):
    _, write = proj
    path = write("shift.c", "#if 1 << (1 << 70)\nint x;\n#endif\n" + CLEAN_C)
    code, _, err = run_main(path)
    assert code in (0, 1)
    assert "Traceback" not in err


def test_non_utf8_source_is_fatal_not_a_traceback(proj, run_main):
    dirpath, _ = proj
    path = dirpath / "latin1.c"
    path.write_bytes(b"/* caf\xe9 */\nint x;\n")
    code, out, err = run_main(str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"stublint: error: {path}: not UTF-8")
    assert "Traceback" not in err


def test_a_byte_order_mark_counts_in_the_offset_of_a_bad_byte(tmp_path, run_main):
    path = tmp_path / "marked.c"
    path.write_bytes(b"\xef\xbb\xbf/* caf\xe9 */\nint x;\n")
    code, out, err = run_main(str(path))
    assert (code, out) == (2, "")
    assert "(byte 9 cannot be decoded)" in err


def test_a_byte_order_mark_is_skipped(tmp_path, run_main, corpus_summaries_path):
    # GCC and Clang skip a UTF-8 byte-order mark, and so does stublint in
    # every file it reads; the columns of line 1 count from after the mark
    sources = {
        name: (CORPUS / "buggy" / name).read_text(encoding="utf-8")
        for name in ("custom_deref.ml", "custom_deref.c")
    }
    sources["one_line.c"] = BAD_C.replace("\n", " ")
    runs = []
    for mark in ("", "\ufeff"):
        root = tmp_path / ("marked" if mark else "plain")
        root.mkdir()
        paths = []
        for name, text in sources.items():
            (root / name).write_text(mark + text, encoding="utf-8")
            paths.append(str(root / name))
        code, out, err = run_main("--summaries", corpus_summaries_path, *paths)
        runs.append((code, out.replace(str(root), "<dir>"), err))
    assert runs[0] == runs[1]
    assert "one_line.c:1:" in runs[0][1] and "custom_deref.c:16:" in runs[0][1]


def test_a_byte_order_mark_keeps_the_first_summary(tmp_path, run_main):
    summaries = tmp_path / "s.txt"
    summaries.write_text("\ufeffhelper: releases_lock\n", encoding="utf-8")
    stub = tmp_path / "s.c"
    stub.write_text(
        "value s(value a)\n{\n    CAMLparam1(a);\n    helper();\n"
        "    caml_leave_blocking_section();\n    CAMLreturn(a);\n}\n"
    )
    assert run_main(str(stub), "--summaries", str(summaries)) == (0, "", "")


def test_an_external_whose_c_name_is_not_an_identifier_is_skipped(tmp_path, run_main):
    ml = tmp_path / "f.ml"
    ml.write_text('external f : int -> int = "f g"\n')
    header, harness = tmp_path / "f.h", tmp_path / "f_harness.c"
    _, out, err = run_main(
        str(ml), "--header-out", str(header), "--harness-out", str(harness)
    )
    assert err == ""
    assert out == (
        f"{ml}:1:1: warning: UNSUPPORTED_CONSTRUCT: external declaration skipped:"
        " C name 'f g' of external 'f' is not a C identifier\n"
    )
    assert "f g" not in header.read_text() + harness.read_text()


def test_broken_summaries_are_fatal(proj, run_main):
    _, write = proj
    summ = write("s.txt", "f: acquires_lock, releases_lock\n")
    code, _, err = run_main(write("ok.c", CLEAN_C), "--summaries", summ)
    assert code == 2
    assert "line 1" in err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])  # argparse: FILE is required
    assert exc.value.code == 2


def test_missing_definition_is_only_a_note(proj, run_main):
    _, write = proj
    code, out, _ = run_main(
        write("decl.ml", 'external f : int -> int = "c_f"\n'),
        write("empty.c", CLEAN_C),
    )
    assert code == 0
    assert "note: NOTE:" in out and "'c_f'" in out


def test_note_suppressed_without_c_files(proj, run_main):
    _, write = proj
    code, out, _ = run_main(write("decl.ml", 'external f : int -> int = "c_f"\n'))
    assert code == 0
    assert out == ""


ADD_NAT_ML = (
    "type nat\n"
    "external add_nat: nat -> int -> int -> nat -> int -> int -> int -> int\n"
    '                = "add_nat_bytecode" "add_nat_native"\n'
)
SEVEN = ", ".join(f"value a{i}" for i in range(1, 8))
SEVEN_BODY = (
    "{\n    CAMLparam5(a1, a2, a3, a4, a5);\n    CAMLxparam2(a6, a7);\n"
    "    CAMLreturn(Val_int(0));\n}\n"
)


def test_arity_above_five_needs_a_native_name_and_the_argv_form(proj, run_main):
    _, write = proj
    # one C name for seven arguments: OCaml cannot compile the declaration
    ml = write("bad7.ml", "type t\nexternal bad7: " + "int -> " * 7 + 'int = "bad7"\n')
    code, out, _ = run_main(ml)
    assert code == 1
    assert out.startswith(
        f"{ml}:2:1: error: ARITY_MISMATCH: external 'bad7' has arity 7 (> 5)"
        " but declares no separate native C name;"
    )
    # the bytecode stub of an arity-7 external takes (value *argv, int argn)
    ml = write("add_nat.ml", ADD_NAT_ML)
    c = write("add_nat.c", f"value add_nat_bytecode({SEVEN})\n" + SEVEN_BODY)
    code, out, _ = run_main(ml, c)
    assert code == 1
    assert (
        f"{c}:1:7: error: ARITY_MISMATCH: 'add_nat_bytecode' implements an"
        " arity-7 external and must use the (value *argv, int argn) form"
    ) in out
    # and the native one takes one parameter per argument
    c = write(
        "add_nat.c",
        f"value add_nat_native({SEVEN})\n" + SEVEN_BODY + "\n"
        "value add_nat_bytecode(value *argv, int argn)\n{\n"
        "    return add_nat_native(argv[0], argv[1], argv[2], argv[3],"
        " argv[4], argv[5], argv[6]);\n}\n",
    )
    code, out, _ = run_main(ml, c)
    assert (code, out) == (0, "")


def test_header_and_harness_to_stdout(proj, run_main):
    _, write = proj
    ml = write("decl.ml", 'external f : int -> int = "c_f"\n')
    _, header, _ = run_main(ml, "--header-out", "-")
    assert "CAMLprim value c_f(value arg1);" in header
    _, harness, _ = run_main(ml, "--harness-out", "-")
    assert "__caller_c_f" in harness


def test_sarif_file_written_and_valid(proj, run_main, sarif_subset_schema):
    dirpath, write = proj
    sarif_path = dirpath / "out.sarif"
    code, _, _ = run_main(write("bad.c", BAD_C), "--sarif", str(sarif_path))
    assert code == 1
    log = json.loads(sarif_path.read_text())
    jsonschema.validate(log, sarif_subset_schema)
    assert log["runs"][0]["results"][0]["ruleId"] == "NAKED_POINTER"


def test_sarif_to_stdout_or_an_unwritable_path(proj, run_main):
    dirpath, write = proj
    c = write("bad.c", BAD_C)
    sarif_path = dirpath / "out.sarif"
    _, text, _ = run_main(c)
    run_main(c, "--sarif", str(sarif_path))
    # `-` writes the same bytes to stdout, before the text findings
    code, out, _ = run_main(c, "--sarif", "-")
    assert code == 1
    assert out == sarif_path.read_text() + text
    # a path that cannot be opened is a fatal error, and nothing is printed
    missing = dirpath / "no such dir" / "out.sarif"
    code, out, err = run_main(c, "--sarif", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith(f"stublint: error: cannot write {missing}: ")


def test_consecutive_runs_are_byte_identical(proj, run_main):
    dirpath, write = proj
    c = write("bad.c", BAD_C)
    ml = write("decl.ml", 'external f : int -> int = "bad"\n')
    s1, s2 = dirpath / "a.sarif", dirpath / "b.sarif"
    code1, out1, _ = run_main(ml, c, "--sarif", str(s1))
    code2, out2, _ = run_main(ml, c, "--sarif", str(s2))
    assert (code1, out1) == (code2, out2)
    assert s1.read_bytes() == s2.read_bytes()


def test_diagnostics_sorted_and_deduplicated(proj, run_main):
    _, write = proj
    src = (
        "value second(value a)\n{\n"
        "    CAMLparam1(a);\n"
        "    CAMLlocal1(v);\n"
        "    v = Tag_cons;\n"
        "    CAMLreturn(v);\n}\n"
        "value first(value a)\n{\n"
        "    return a;\n"
        "}\n"
    )
    _, out, _ = run_main(write("two.c", src))
    lines = out.strip().splitlines()
    reported = [int(line.split(":")[1]) for line in lines]
    assert reported == sorted(reported)


def test_main_gives_back_the_collector_state_it_found(proj, run_main):
    _, write = proj
    paths = {
        0: write("ok.c", CLEAN_C),
        1: write("bad.c", BAD_C),
        2: write("stray.c", "int x = @;\n"),
    }
    collecting = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for status, path in paths.items():
                assert run_main(path)[0] == status
                assert gc.isenabled() == enabled
    finally:
        (gc.enable if collecting else gc.disable)()


def test_deep_nesting_is_unsupported_not_a_traceback(proj, run_main):
    _, write = proj
    bodies = [
        "v = " + "(" * 400 + "1" + ")" * 400 + ";",
        "if (a) " * 400 + "a = 1;",
        "{" * 2000 + "}" * 2000,
        "v = " + "-" * 3000 + "1;",
    ]
    for body in bodies:
        path = write("deep.c", f"value f(value a)\n{{\n    {body}\n    return a;\n}}\n")
        code, out, err = run_main(path)
        assert (code, err) == (0, "")
        assert out.startswith(f"{path}:1:7: warning: UNSUPPORTED_CONSTRUCT:")
        assert "nested more than" in out
    guard = "#if " + "(" * 3000 + "1" + ")" * 3000 + "\nint x;\n#endif\n"
    code, out, err = run_main(write("deep.c", guard))
    assert (code, err) == (0, "")
    assert "note: NOTE: conditional '#if" in out


_CORPUS_TOKENS = sorted(
    {
        token
        for path in CORPUS.glob("**/*")
        if path.suffix in (".c", ".ml")
        for token in re.findall(r'"(?:[^"\\\n]|\\.)*"|\w+|[^\w\s]|\n', path.read_text())
    }
)
_SOUP = st.lists(st.sampled_from(_CORPUS_TOKENS), max_size=300).map(
    lambda tokens: " ".join(tokens).encode()
)


@given(
    source=st.one_of(st.binary(max_size=2000), _SOUP),
    suffix=st.sampled_from([".c", ".c", ".c", ".ml"]),
)
def test_main_on_any_input_exits_0_1_or_2(tmp_path_factory, source, suffix):
    path = tmp_path_factory.getbasetemp() / f"soup{suffix}"
    path.write_bytes(source)
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([str(path), "--sarif", str(path) + ".sarif"])
    assert code in (0, 1, 2)
    assert gc.isenabled()
