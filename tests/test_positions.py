"""Every finding points at its token on disk, after comments, macro uses and
backslash-newline splices alike."""

import re
from pathlib import Path

from stubgen import stubs
from stublint.cli import run

CORPUS = Path(__file__).parent / "corpus"
SUMMARIES = str(CORPUS / "stublint-summaries.txt")

# What the text on disk at a finding's column starts with, by rule: one of
# these words, where {name} is the first name the message quotes and
# {first} its first word.  A finding on a token that a macro use made is
# at the macro's name instead (see `points_at_anchor`).
ANCHORS = {
    "ARITY_MISMATCH": ["{name}"],  # the C function's name
    "VOID_STUB": ["{name}"],
    "MISSING_CAMLPARAM": ["{name}"],
    "CAMLPARAM_ARITY": ["CAMLparam", "CAMLxparam"],
    "DERIVED_PTR_STALE": ["*", "->", "["],  # the dereference
    "NAKED_POINTER": ["=", "{name}"],  # the store, or the declared name
    "RUNTIME_CALL_UNLOCKED": ["{first}"],  # the callee
    # the dereference: a call such as Field(v, 0), or an operator
    "VALUE_DEREF_UNLOCKED": ["{name}", "Field", "String_val", "*", "->", "["],
    "UNBALANCED_LOCK": [
        "caml_enter_blocking_section",
        "caml_leave_blocking_section",
        "return",
        "CAMLreturn",
    ],
    "UNSUPPORTED_CONSTRUCT": ["goto"],
    # a note on a conditional is at column 1 of its directive line
    "NOTE": ["&", "#"],
}


def anchors(diag) -> list[str]:
    quoted = re.search(r"'([A-Za-z_]\w*)", diag.message)
    fields = {
        "name": quoted.group(1) if quoted else None,
        "first": diag.message.split()[0],
    }
    return [word.format(**fields) for word in ANCHORS[diag.rule_id]]


def points_at_anchor(diag, source: str) -> bool:
    at = source.split("\n")[diag.line - 1][diag.column - 1 :]
    if diag.rule_id == "NOTE" and diag.column == 1:
        at = at.lstrip()
    words = anchors(diag)
    if any(at.startswith(word) for word in words):
        return True
    # a macro use, whose definition or arguments hold the anchor
    spliced = source.replace("\\\n", "")
    defines = re.findall(r"^\s*#\s*define\s+(\w+)(.*)$", spliced, re.M)
    return any(
        at.startswith(name) and any(word in body or word in at for word in words)
        for name, body in defines
    )


# a literal or a comment, so that comment markers in literals are text
COMMENT_RE = re.compile(
    r"""\"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*'|//.*|/\*[\s\S]*?\*/"""
)


def shifted(source: str) -> str:
    """`source` under a comment that spans lines, each line of code moved
    right by a macro use that expands to nothing and by a comment, and
    split after its first blank by a backslash-newline."""
    in_comment = set()  # the lines that start inside a block comment
    for m in COMMENT_RE.finditer(source):
        if m.group().startswith("/*"):
            line = source.count("\n", 0, m.start()) + 1
            in_comment.update(range(line + 1, line + 1 + m.group().count("\n")))
    out = ["/* a comment that", "   spans lines */", "#define SHIFT(x)"]
    for number, line in enumerate(source.split("\n"), start=1):
        code = line.lstrip()
        if not code or code.startswith("#") or number in in_comment:
            out.append(line)
            continue
        first, blank, rest = code.partition(" ")
        split = f"{first} \\\n{rest}" if blank else code
        out.append(f"{line[: len(line) - len(code)]}SHIFT(1) /* c */ {split}")
    return "\n".join(out)


def findings(paths):
    diags, _ = run([str(p) for p in paths], summaries=SUMMARIES)
    return diags


def check_positions(diags):
    for diag in diags:
        source = Path(diag.file).read_text()
        assert points_at_anchor(diag, source), diag.render()


def corpus_copy(root: Path, shift: bool) -> list[Path]:
    paths = []
    for path in sorted(CORPUS.glob("*/*.[cm]*")):
        if path.suffix not in (".c", ".ml"):
            continue
        copy = root / path.parent.name / path.name
        copy.parent.mkdir(parents=True, exist_ok=True)
        text = path.read_text()
        copy.write_text(shifted(text) if shift and path.suffix == ".c" else text)
        paths.append(copy)
    return paths


def test_corpus_findings_point_at_their_tokens(tmp_path):
    # shifted, `caml_failwith("evtchn notify failed")` is split inside its
    # string literal
    plain = findings(corpus_copy(tmp_path / "plain", shift=False))
    assert len(plain) >= 7
    check_positions(plain)
    moved = findings(corpus_copy(tmp_path / "shifted", shift=True))
    check_positions(moved)
    # the shift moves every finding and changes none; a line it splits in
    # two may keep one finding on each half
    assert {(d.rule_id, d.message) for d in moved} == {
        (d.rule_id, d.message) for d in plain
    }
    places = {(d.line, d.column) for d in plain}
    assert not places & {(d.line, d.column) for d in moved}


def test_random_stub_findings_point_at_their_tokens(tmp_path):
    # the golden stubs use object-like, function-like and continued macros,
    # guards, and comments that span lines
    for shift in (False, True):
        paths = []
        for name, source in stubs(count=60):
            path = tmp_path / str(shift) / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(shifted(source) if shift else source)
            paths.append(path)
        diags = findings(paths)
        assert {d.rule_id for d in diags} >= set(ANCHORS) - {
            "ARITY_MISMATCH", "VOID_STUB"
        }
        check_positions(diags)


# -- regressions -------------------------------------------------------------


def test_columns_after_a_macro_use_are_on_disk(lint_c):
    src = (
        "#define LONGNAME_MACRO(x) 0\n"
        "#define SHORT(x) foo_bar_baz_qux(x, x, x)\n"
        "value g(value a)\n"
        "{\n"
        "    CAMLparam1(a);\n"
        "    CAMLlocal1(v);\n"
        "    SHORT(1); v = 0;\n"
        "      LONGNAME_MACRO(0); v = 0;\n"
        "    CAMLreturn(v);\n"
        "}\n"
    )
    found = [(d.line, d.column) for d in lint_c(src) if d.rule_id == "NAKED_POINTER"]
    assert found == [(7, 17), (8, 28)]


def test_lines_after_a_continued_statement_are_on_disk(lint_c):
    src = (
        "value h(value a)\n"
        "{\n"
        "    CAMLparam1(a); CAMLlocal1(v);\n"
        "    int n = 1 + \\\n"
        "2; v = 0;\n"
        "    CAMLreturn(v);\n"
        "}\n"
    )
    found = [(d.line, d.column) for d in lint_c(src) if d.rule_id == "NAKED_POINTER"]
    assert found == [(5, 6)]


STUB = "value k(value a)\n{\n    CAMLparam1(a);\n    CAMLreturn(a);\n}\n"


def test_a_dead_group_never_fails(run_main, tmp_path):
    # a bad character and an unclosed quote are no error where #if drops them
    path = tmp_path / "dead.c"
    path.write_text("#if 0\nit's dead @ code\n#endif\n" + STUB)
    assert run_main(str(path)) == (0, "", "")


def test_a_bad_character_in_live_code_is_an_error_at_its_place(run_main, tmp_path):
    path = tmp_path / "live.c"
    for source, where in [
        ("/* a\n comment */ #include <x.h>\n#if 1\n  int x = 1 @ 2;\n#endif\n", "4:13"),
        ("#define AT(x) x @\nint x = \\\n  AT(1);\n", "3:3"),
        ("int x = 1; #if 0\n", "1:12"),
    ]:
        path.write_text(source + STUB)
        code, out, err = run_main(str(path))
        assert code == 2 and out == "", source
        assert f"{path}: {where}: unexpected character " in err, (source, err)
