"""End-to-end command line behavior: exit codes, outputs, suppression."""

import contextlib
import errno
import functools
import gc
import io
import json
import os
import pickle
import re

import jsonschema
import pytest
import stubgen
from conftest import CORPUS
from hypothesis import given, settings, strategies as st

from stublint import cli, workers
from stublint.cli import main
from stublint.diagnostics import normalize, sort_key
from stublint.lock_analysis import load_summaries
from stublint.sarif import sarif

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


@pytest.mark.parametrize(
    "source, reason",
    [
        ("int x = ", "1:8: unexpected token '<eof>'"),
        ("value f(value a)\n{\n    CAMLparam1(a);", "2:1: unbalanced '{'"),
        ("struct s { int a;", "1:10: unbalanced '{'"),
        ("value f(value a, int", "1:21: expected ')', found '<eof>'"),
    ],
    ids=["initializer", "body", "struct", "parameters"],
)
def test_an_item_cut_short_by_the_end_of_the_file_is_reported_where_it_begins(
    proj, run_main, source, reason
):
    """The item is reported at its first token; the parse error it quotes
    is at the token that failed, the end of the file just past the last
    token."""
    _, write = proj
    path = write("short.c", source)
    code, out, err = run_main(path)
    assert (code, err) == (0, "")
    warning = f"{path}:1:1: warning: UNSUPPORTED_CONSTRUCT: unparsed construct: "
    assert out == warning + reason + "\n"


def test_a_stray_brace_at_the_top_level_hides_nothing_after_it(proj, run_main):
    _, write = proj
    path = write("stray.c", "int a;\n}\nvalue g(value a)\n{\n    return a;\n}\n")
    code, out, err = run_main(path)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"{path}:2:1: warning: UNSUPPORTED_CONSTRUCT: unparsed construct:"
        " 2:1: cannot parse top-level token '}'",
        f"{path}:3:7: warning: MISSING_CAMLPARAM: 'g' handles OCaml values but"
        " does not start with a CAMLparam macro",
    ]


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


# -- C files in forked workers -----------------------------------------------


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs `main` sees, so the number of its jobs."""

    def set_to(count: int):
        monkeypatch.setattr(cli, "_available_cpus", lambda: count)

    return set_to


def assert_no_worker_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outputs(tmp_path, run_main, paths, tag: str) -> tuple:
    """(exit, stdout, stderr, SARIF, header, harness) of one run."""
    outs = [tmp_path / f"{tag}{name}" for name in (".sarif", ".h", "_harness.c")]
    sarif, header, harness = map(str, outs)
    code, out, err = run_main(
        *paths, "--sarif", sarif, "--header-out", header, "--harness-out", harness
    )
    assert_no_worker_is_left()
    return (code, out, err, *[p.read_bytes() for p in outs])


def test_the_outputs_do_not_depend_on_the_jobs(
    tmp_path, run_main, cpus, corpus_summaries_path
):
    paths = sorted(str(p) for p in CORPUS.glob("*/*") if p.suffix in (".ml", ".c"))
    paths = ["--summaries", corpus_summaries_path, *paths]
    runs = []
    for jobs in (1, 2, 5):
        cpus(jobs)
        runs.append(_outputs(tmp_path, run_main, paths, str(jobs)))
    code, out, err = runs[0][:3]
    assert (code, err) == (1, "")
    assert "void_stub.c" in out and "custom_deref.c" in out
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_the_first_fatal_error_in_file_order_is_reported(proj, run_main, cpus):
    _, write = proj
    paths = [write(f"f{i}.c", CLEAN_C.replace("ok", f"ok{i}")) for i in range(6)]
    paths[3] = paths[3].replace("f3.c", "missing.c")
    paths[4] = write("f4.c", "value f(value a)\n{\n    return a @ 1;\n}\n")
    # one, two and three slices: the missing file is in the second or the
    # third slice, and the lex error in the third
    for jobs in (1, 2, 3):
        cpus(jobs)
        code, out, err = run_main(*paths)
        assert_no_worker_is_left()
        assert (code, out) == (2, "")
        assert err == (
            f"stublint: error: cannot read {paths[3]}: No such file or directory\n"
        )


def test_an_unwritable_header_stops_the_workers(proj, run_main, cpus):
    dirpath, write = proj
    paths = [write(f"f{i}.c", BAD_C) for i in range(4)]
    header = dirpath / "no such dir" / "out.h"
    cpus(2)
    code, out, err = run_main(*paths, "--header-out", str(header))
    assert_no_worker_is_left()
    assert (code, out) == (2, "")
    assert err.startswith(f"stublint: error: cannot write {header}: ")


def test_a_worker_failure_is_raised_not_an_exit_status(proj, monkeypatch, cpus):
    _, write = proj
    paths = [write(f"f{i}.c", BAD_C) for i in range(4)]
    analyze_unit = cli.analyze_unit

    def fail_on_the_last_file(unit, table):
        if unit.file == paths[-1]:
            raise ValueError("boom")
        return analyze_unit(unit, table)

    monkeypatch.setattr(cli, "analyze_unit", fail_on_the_last_file)
    cpus(2)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        with pytest.raises(RuntimeError, match="ValueError: boom"):
            main(paths)
    assert_no_worker_is_left()
    assert out.getvalue() == ""


def _exit_before_replying(parts, table):
    os._exit(0)


_dumps = pickle.dumps


def _truncated_dumps(obj, protocol):
    return _dumps(obj, protocol)[:-5]


@pytest.mark.parametrize(
    "module, name, fake",
    [
        (workers, "_analyze_files", _exit_before_replying),
        (pickle, "dumps", _truncated_dumps),
    ],
    ids=["empty", "truncated"],
)
def test_a_worker_that_ends_without_replying_is_raised(
    proj, monkeypatch, cpus, capsys, module, name, fake
):
    """A worker that leaves before it writes sends an empty reply, and one
    cut short a truncated one: each is an error, not a run without the
    records of its slice."""
    _, write = proj
    paths = [write(f"f{i}.c", BAD_C) for i in range(4)]
    monkeypatch.setattr(module, name, fake)
    cpus(2)
    message = "^a worker ended without sending its results$"
    with pytest.raises(RuntimeError, match=message):
        main(paths)
    assert_no_worker_is_left()
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "call, error", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)]
)
def test_a_slice_no_worker_can_take_stays_in_this_process(
    proj, run_main, cpus, monkeypatch, call, error
):
    """When the system refuses the second worker its process or its pipe,
    that slice and the next are analyzed here, with the same output."""
    _, write = proj
    paths = [write(f"f{i}.c", BAD_C if i % 2 else CLEAN_C) for i in range(6)]
    cpus(1)
    alone = run_main(*paths)
    real = getattr(os, call)
    calls = []

    def refuse_the_second():
        calls.append(call)
        if len(calls) == 2:
            raise OSError(error, os.strerror(error))
        return real()

    monkeypatch.setattr(os, call, refuse_the_second)
    cpus(4)
    assert run_main(*paths) == alone
    assert calls == [call, call]
    assert_no_worker_is_left()
    assert alone[0] == 1 and "f1.c:" in alone[1] and "f5.c:" in alone[1]


# -- a lone C file cut at top-level items --------------------------------------


def _stub_sources(count: int, seed: int = 23) -> list[str]:
    """`count` stubgen stubs; a few call the stub five on, so some
    stub-calls-stub calls cross a cut."""
    sources = [source for _, source in stubgen.stubs(seed, count)]
    for i in range(0, count, 3):
        callee = f"stub_g{(i + 5) % count:03d}"
        sources[i] = sources[i].replace("take(&n);", f"{callee}(a, b);", 1)
    return sources


def _stub_file(count: int) -> str:
    return "".join(_stub_sources(count))


def _externals(count: int) -> str:
    return "".join(
        f'external g{i} : {"int -> " * (2 + (i % 7 == 0))}int = "stub_g{i:03d}"\n'
        for i in range(count)
    )


def test_a_lone_file_cut_for_the_jobs_gives_the_outputs_of_one_process(
    proj, run_main, cpus
):
    _, write = proj
    # a prefix summary line for every stub; the tests below use none
    summaries = write("summaries.txt", "stub_g*: requires_lock\n")
    paths = [
        "--summaries",
        summaries,
        write("g.ml", _externals(200)),
        write("g.c", _stub_file(200)),
    ]
    runs = []
    for jobs in (1, 2, 3):
        assert len(cli._slices(paths[-1:], jobs)) == jobs
        cpus(jobs)
        runs.append(_outputs(proj[0], run_main, paths, str(jobs)))
    code, out, err = runs[0][:3]
    assert (code, err) == (1, "")
    assert "RUNTIME_CALL_UNLOCKED" in out and "ARITY_MISMATCH" in out
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


FILLER = "    n = n + 1;\n" * 40


def _unlocked_call(callee: str, name: str = "caller") -> str:
    """A stub `name` that calls `callee` while the lock is released."""
    return (
        f"value {name}(value a)\n{{\n    CAMLparam1(a);\n"
        "    caml_enter_blocking_section();\n"
        f"    {callee}(a);\n"
        "    caml_leave_blocking_section();\n"
        "    CAMLreturn(a);\n}\n"
    )


def test_a_body_that_runs_past_the_cut_is_owned_by_the_part_its_item_begins_in(
    proj, run_main, cpus
):
    """The cut lands after a `}` in column 1 that closes an inner block, so
    the first part's last item runs past it: the first part parses it, and
    the second, where the item does not begin, skips its body to the `}`
    that ends it and parses the items after it."""
    source = (
        "value first(value a)\n{\n    CAMLparam1(a);\n    int n = 0;\n"
        + FILLER
        + "    if (Is_block(a)) {\n        a = Field(a, 0);\n}\n"
        + "    CAMLreturn(a);\n}\n"
        + BAD_C
    )
    assert source.find("\n}", len(source) // 2) == source.index("\n}\n    CAMLreturn")
    alone = _cross_part_run(proj, run_main, cpus, "brace.c", source)
    assert alone[0] == 1 and "brace.c:" in alone[1]


def test_a_call_with_the_lock_held_to_a_camlprim_of_another_part_gives_no_finding(
    proj, run_main, cpus
):
    """A shared non-static `value` helper is a CAMLprim to the parser; a
    later part that calls it with the lock held reads its head, and the
    lock's need judges no call made with the lock held."""
    source = (
        "value shared_helper(value a)\n{\n    CAMLparam1(a);\n    int n = 0;\n"
        + FILLER
        + "    CAMLreturn(a);\n}\n"
        + "value caller(value a)\n{\n    CAMLparam1(a);\n"
        + "    a = shared_helper(a);\n    CAMLreturn(a);\n}\n"
        + BAD_C
    )
    alone = _cross_part_run(proj, run_main, cpus, "shared.c", source)
    assert alone[0] == 1 and "shared.c:" in alone[1]
    assert _findings_at(alone[1], source, "    a = shared_helper(a);") == []


HELPER_PRIM = (
    "value helper_prim(value a)\n{\n    CAMLparam1(a);\n    int n = 0;\n"
    + FILLER
    + "    CAMLreturn(a);\n}\n"
)
# a CAMLprim whose body does not parse: GNU statement expressions are
# outside the subset
BROKEN_PRIM = (
    "value broken_prim(value a)\n{\n    CAMLparam1(a);\n    int x = ({ 1; });\n"
    + FILLER
    + "    CAMLreturn(a);\n}\n"
)
# calls helper_prim first with the lock released, then, on the loop's
# second visit, in a lock state that may be either
LOOPED_CALL = (
    "value looper(value a)\n{\n    CAMLparam1(a);\n    int i;\n"
    "    caml_enter_blocking_section();\n"
    "    for (i = 0; i < 3; i++) {\n"
    "        helper_prim(a);\n"
    "        caml_leave_blocking_section();\n"
    "    }\n"
    "    CAMLreturn(a);\n}\n"
)


def _cross_part_run(proj, run_main, cpus, name: str, source: str, jobs: int = 2):
    """The outputs of `source` written to `name` in one process, after
    asserting that a run in `jobs` processes cut it and gave the same."""
    _, write = proj
    paths = [write("one.ml", CLEAN_ML), write(name, source)]
    assert len(cli._slices(paths[1:], jobs)) == jobs
    cpus(1)
    alone = _outputs(proj[0], run_main, paths, "1")
    cpus(jobs)
    assert _outputs(proj[0], run_main, paths, str(jobs)) == alone
    return alone


def _findings_at(out: str, source: str, call: str) -> list[str]:
    """The lines of `out` that report RUNTIME_CALL_UNLOCKED on the line of
    `source` that holds `call`, from the column on."""
    line = source.count("\n", 0, source.index(call)) + 1
    found = [finding.partition(f".c:{line}:")[2] for finding in out.splitlines()]
    return [finding for finding in found if "RUNTIME_CALL_UNLOCKED" in finding]


def test_a_call_to_a_camlprim_of_another_part_needs_the_lock_in_every_part(
    proj, run_main, cpus
):
    """The later part calls a CAMLprim of the earlier one, with no summary
    line, while the lock is released: the later part reads the CAMLprim's
    head, so its table says the callee needs the lock, as one process's
    does."""
    source = HELPER_PRIM + _unlocked_call("helper_prim")
    alone = _cross_part_run(proj, run_main, cpus, "cross.c", source)
    assert _findings_at(alone[1], source, "    helper_prim(a);") == [
        "5: error: RUNTIME_CALL_UNLOCKED: helper_prim called while the runtime"
        " lock is released"
    ]


def test_a_camlprim_whose_body_does_not_parse_needs_the_lock_in_every_part(
    proj, run_main, cpus
):
    """The CAMLprim is dropped with a warning, but it is still a stub of
    the file: a stub that calls it while the lock is released gets the
    error, whether the two lie in one part or on either side of a cut."""
    source = BROKEN_PRIM + _unlocked_call("broken_prim") + BAD_C
    for jobs in (2, 3):
        alone = _cross_part_run(proj, run_main, cpus, "broken.c", source, jobs)
        assert alone[0] == 1
        assert alone[1].count("could not parse body of 'broken_prim'") == 1
        assert _findings_at(alone[1], source, "    broken_prim(a);") == [
            "5: error: RUNTIME_CALL_UNLOCKED: broken_prim called while the"
            " runtime lock is released"
        ]


def test_a_cross_part_call_is_judged_in_the_state_of_its_last_visit(
    proj, run_main, cpus
):
    """The call's block is visited first with the lock released, then in
    the joined state of the loop: the whole file reports the warning of
    the last visit alone, not the error of the first."""
    source = HELPER_PRIM + LOOPED_CALL
    alone = _cross_part_run(proj, run_main, cpus, "loop.c", source)
    assert _findings_at(alone[1], source, "        helper_prim(a);") == [
        "9: warning: RUNTIME_CALL_UNLOCKED: helper_prim may be called without"
        " the runtime lock held"
    ]


def test_a_later_part_without_a_function_gives_the_outputs_of_one_process(
    proj, run_main, cpus
):
    """The third part holds only declarations, so its record has no
    function header."""
    declarations = "struct point {\n    int x;\n    int y;\n};\n" + "".join(
        f"static int counter{i};\n" for i in range(8)
    )
    source = HELPER_PRIM + _unlocked_call("helper_prim") + declarations
    _, write = proj
    last = cli._slices([write("decls.c", source)], 3)[-1][0][1]
    assert last == source.count("\n", 0, source.index("struct point")) + 1
    alone = _cross_part_run(proj, run_main, cpus, "decls.c", source, jobs=3)
    assert len(_findings_at(alone[1], source, "    helper_prim(a);")) == 1


def test_a_cut_file_is_analyzed_once(proj, run_main, cpus, monkeypatch):
    _, write = proj
    path = write("once.c", HELPER_PRIM + _unlocked_call("helper_prim"))
    analyzed = []
    analyze_files = cli._analyze_files

    def spy(parts, table):
        analyzed.extend(parts)
        return analyze_files(parts, table)

    monkeypatch.setattr(cli, "_analyze_files", spy)
    cpus(2)
    code, out, _ = run_main(path)
    assert code == 1 and "RUNTIME_CALL_UNLOCKED" in out
    # this process analyzes its own part, then nothing whole
    assert analyzed == cli._slices([path], 2)[0]
    assert analyzed[0][2] is not None


@pytest.mark.parametrize(
    "head, tail",
    [
        ("", "\n\n"),
        ("", "/* end of bad.c */\n"),
        ("#define WITH_BAD\n#ifdef WITH_BAD\n", "#endif\n"),
        ("", "static int counter;\n"),
    ],
    ids=["blank", "comment", "ifdef", "declaration"],
)
def test_a_one_function_file_forks_nothing(
    proj, run_main, cpus, monkeypatch, head, tail
):
    """Whatever follows the one `}` in column 1, a file of one function is
    not cut."""
    _, write = proj
    path = write("bad.c", head + BAD_C + tail)

    def no_fork():
        pytest.fail("a one-function file was cut")

    monkeypatch.setattr(os, "fork", no_fork)
    cpus(2)
    code, out, _ = run_main(path)
    assert code == 1 and "NAKED_POINTER" in out
    assert_no_worker_is_left()


def test_a_lex_error_in_a_later_part_is_the_error_of_one_process(
    proj, run_main, cpus
):
    _, write = proj
    source = _stub_file(40)
    late = source.index("take(&n);", len(source) * 3 // 4)
    path = write("lex.c", source[:late] + "n = n @ 1; " + source[late:])
    cpus(1)
    alone = run_main(path)
    cpus(2)
    assert run_main(path) == alone
    assert_no_worker_is_left()
    line = source.count("\n", 0, late) + 1
    assert alone[0] == 2 and alone[1] == ""
    assert alone[2].startswith(f"stublint: error: {path}: {line}:")


_CUT_SOURCES = _stub_sources(12, seed=5)
_CUT_SOURCES.insert(7, _unlocked_call("stub_g004"))
# an item that does not parse, a CAMLprim whose body does not, and a stub
# that calls that CAMLprim while the lock is released
_CUT_SOURCES.insert(2, "int broken = ;\n")
_CUT_SOURCES.insert(4, BROKEN_PRIM)
_CUT_SOURCES.insert(11, _unlocked_call("broken_prim", "broken_caller"))
# a stray `}` in column 1, itself a cut point, before a stub
_CUT_SOURCES.insert(9, "}\n")
_CUT_SOURCE = "".join(_CUT_SOURCES)
_CUT_LINES = _CUT_SOURCE.count("\n")
# the lines after a `}` in column 1, where `cli._slices` cuts
_BRACE_CUTS = [
    _CUT_SOURCE.count("\n", 0, i + 1) + 2
    for i in range(len(_CUT_SOURCE))
    if _CUT_SOURCE.startswith("\n}", i)
]


def _cut_path(tmp_path_factory) -> str:
    path = tmp_path_factory.getbasetemp() / "cut.c"
    if not path.exists():
        path.write_text(_CUT_SOURCE)
    return str(path)


@settings(max_examples=25)
@given(
    cuts=st.lists(
        st.one_of(st.sampled_from(_BRACE_CUTS), st.integers(1, _CUT_LINES)),
        min_size=1,
        max_size=3,
    )
)
def test_a_join_is_the_record_of_the_whole_file(tmp_path_factory, cuts):
    """The records of the parts, joined in order, are the record of the
    whole file: each of its findings comes from exactly one part, and a
    call to a CAMLprim of any part needs the lock."""
    path = _cut_path(tmp_path_factory)
    table = load_summaries()
    whole = cli._analyze_files([(path, 0, None)], table)[0]
    lines = [0, *sorted(set(cuts)), None]
    parts = [(path, first, last) for first, last in zip(lines, lines[1:])]
    records = cli._analyze_files(parts, table)
    found = [d for rec in records for d in rec.found]
    assert sorted(found, key=sort_key) == sorted(whole.found, key=sort_key)
    assert [fn for rec in records for fn in rec.headers] == whole.headers
    unlocked = [d.message for d in found if d.rule_id == "RUNTIME_CALL_UNLOCKED"]
    assert "broken_prim called while the runtime lock is released" in unlocked


def test_the_corpus_joined_into_one_file_gives_the_outputs_of_one_process(
    tmp_path, run_main, cpus, corpus_summaries_path
):
    joined = tmp_path / "joined.c"
    joined.write_text("".join(p.read_text() for p in sorted(CORPUS.glob("*/*.c"))))
    mls = sorted(str(p) for p in CORPUS.glob("*/*.ml"))
    paths = ["--summaries", corpus_summaries_path, *mls, str(joined)]
    runs = []
    for jobs in (1, 2, 3):
        assert len(cli._slices([str(joined)], jobs)) == jobs
        cpus(jobs)
        runs.append(_outputs(tmp_path, run_main, paths, str(jobs)))
    code, out, err = runs[0][:3]
    assert (code, err) == (1, "")
    assert "joined.c:" in out and "ARITY_MISMATCH" in out
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@functools.cache
def _c_findings(cut_path: str) -> tuple:
    """The findings of the C files of the corpus, under its summaries, and
    of the file at `cut_path`, in the order of a run in one process."""
    corpus = [(str(p), 0, None) for p in sorted(CORPUS.glob("*/*.c"))]
    table = load_summaries((CORPUS / "stublint-summaries.txt").read_text())
    records = cli._analyze_files(corpus, table)
    records += cli._analyze_files([(cut_path, 0, None)], load_summaries())
    return tuple(d for rec in records for d in rec.found)


@settings(max_examples=25)
@given(order=st.randoms(use_true_random=False))
def test_the_order_of_a_c_files_findings_changes_no_output(tmp_path_factory, order):
    """`cli.run` gathers the findings of a cut C file in another order
    than a run in one process; `normalize` must make that order vanish, so
    two findings with one sort key must be equal."""
    findings = _c_findings(_cut_path(tmp_path_factory))
    shuffled = order.sample(findings, len(findings))
    ordered, mixed = normalize(findings), normalize(shuffled)
    assert [d.render() for d in mixed] == [d.render() for d in ordered]
    assert "".join(sarif(mixed)) == "".join(sarif(ordered))
