"""The acceptance gate.

Eight release-blocking behaviors, each printing exactly one
"acceptance N <title>: PASS|FAIL" line (run pytest with -s or -v to see
them).  Expected values are frozen here or in checked-in oracle files,
never recomputed from the code under test.
"""

import contextlib
import itertools
import json
import re
import time
from pathlib import Path

import jsonschema

from stublint.cli import run
from stublint.header_gen import render_header
from stublint.lock_analysis import LockState, join_lock, load_summaries, step_call
from stublint.ml_frontend import parse_ml_externals
from stublint.sarif import emit_sarif

CORPUS = Path(__file__).parent / "corpus"
SUMMARIES = str(CORPUS / "stublint-summaries.txt")

BUGGY = [
    "arity_refactor",
    "void_stub",
    "custom_deref",
    "stale_abstract_ptr",
    "tag_cons_store",
    "return_unlocked",
    "string_stale",
]
FIXED = [
    "arity_ok",
    "void_ok",
    "custom_deref_fixed",
    "abstract_store_fixed",
    "emptylist_ok",
    "return_unlocked_fixed",
    "string_stale_fixed",
]


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"acceptance {number}  {title}: FAIL")
        raise
    print(f"acceptance {number}  {title}: PASS")


def pair(directory: str, base: str) -> list[str]:
    return [str(CORPUS / directory / f"{base}.ml"), str(CORPUS / directory / f"{base}.c")]


def run_pair(directory: str, base: str):
    diags, _ = run(pair(directory, base), summaries=SUMMARIES)
    return diags


# -- 1. buggy corpus reproduces each finding at its exact line ------------------


def load_expected():
    expected = {}
    text = (CORPUS / "buggy" / "expected_errors.txt").read_text()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"(\S+\.c):(\d+): (\w+)", line)
        assert m, f"malformed oracle line: {line!r}"
        expected[m.group(1)] = (int(m.group(2)), m.group(3))
    return expected


def test_criterion_1_buggy_corpus_exact_findings():
    with criterion(1, "buggy corpus: one exact error each"):
        expected = load_expected()
        assert set(expected) == {f"{b}.c" for b in BUGGY}
        for base in BUGGY:
            diags = run_pair("buggy", base)
            errors = [d for d in diags if d.severity == "error"]
            want_line, want_rule = expected[f"{base}.c"]
            got = [(Path(d.file).name, d.line, d.rule_id) for d in errors]
            assert got == [(f"{base}.c", want_line, want_rule)], (
                f"{base}: expected exactly {want_rule} at line {want_line},"
                f" got {[(d.rule_id, d.line) for d in errors]}"
            )
            assert not [d for d in diags if d.severity == "warning"], base


# -- 2. fixed corpus is clean ----------------------------------------------------


def test_criterion_2_fixed_corpus_silent():
    with criterion(2, "fixed corpus: notes only"):
        for base in FIXED:
            diags = run_pair("fixed", base)
            loud = [d for d in diags if d.severity != "note"]
            assert loud == [], f"{base}: {[(d.rule_id, d.line) for d in loud]}"


# -- 3. header golden --------------------------------------------------------------

ADD_NAT_ML = (
    "external add_nat: nat -> int -> int -> nat -> int -> int -> int -> int\n"
    '                = "add_nat_bytecode" "add_nat_native"\n'
)

# Frozen expected output: preamble plus the bytecode prototype, byte for byte.
GOLDEN_HEADER_PREFIX = (
    "/* AUTOGENERATED FILE, DO NOT EDIT */\n"
    "#define CAML_NAME_SPACE\n"
    "#define _GNU_SOURCE\n"
    "#define _XOPEN_SOURCE 600\n"
    "#include <caml/mlvalues.h>\n"
    "CAMLprim value add_nat_bytecode(value *argv, int argn);\n"
)


def test_criterion_3_header_golden():
    with criterion(3, "add_nat header golden"):
        decls, errors = parse_ml_externals(ADD_NAT_ML, "test.ml")
        assert errors == []
        header = render_header(decls)
        assert header.startswith(GOLDEN_HEADER_PREFIX)


# -- 4. lattice laws and transfer table, exhaustively ------------------------------

B, H, R, U = LockState.BOTTOM, LockState.HELD, LockState.RELEASED, LockState.UNKNOWN

JOIN_FIXTURE = {
    (B, B): B, (B, H): H, (B, R): R, (B, U): U,
    (H, B): H, (H, H): H, (H, R): U, (H, U): U,
    (R, B): R, (R, H): U, (R, R): R, (R, U): U,
    (U, B): U, (U, H): U, (U, R): U, (U, U): U,
}

# (intrinsic, in-state) -> (out-state, finding severity or None)
TRANSFER_FIXTURE = {
    ("caml_enter_blocking_section", B): (R, None),
    ("caml_enter_blocking_section", H): (R, None),
    ("caml_enter_blocking_section", R): (R, "error"),
    ("caml_enter_blocking_section", U): (R, "warning"),
    ("caml_leave_blocking_section", B): (H, None),
    ("caml_leave_blocking_section", H): (H, "error"),
    ("caml_leave_blocking_section", R): (H, None),
    ("caml_leave_blocking_section", U): (H, "warning"),
}


def test_criterion_4_lattice_exhaustive():
    with criterion(4, "lock lattice vs fixture tables"):
        states = [B, H, R, U]
        for a, b in itertools.product(states, states):
            assert join_lock(a, b) is JOIN_FIXTURE[(a, b)]
            assert join_lock(a, b) is join_lock(b, a)
            assert join_lock(a, a) is a
            for c in states:
                assert join_lock(join_lock(a, b), c) is join_lock(a, join_lock(b, c))
        table = load_summaries()
        for (intrinsic, state), (want_out, want_sev) in TRANSFER_FIXTURE.items():
            out, finding = step_call(intrinsic, state, table.lookup(intrinsic))
            assert out is want_out, (intrinsic, state)
            got_sev = finding[1] if finding else None
            assert got_sev == want_sev, (intrinsic, state)


# -- 5. naked-pointer parity oracle over the full 16-bit range --------------------


def test_criterion_5_naked_parity_oracle():
    with criterion(5, "naked-pointer parity oracle, 0..65535 in <10s"):
        from stublint.c_frontend.parser import parse_unit
        from stublint.cli import analyze_unit

        head = [
            "value probe(value unused)",
            "{",
            "    CAMLparam1(unused);",
            "    CAMLlocal1(v);",
        ]
        assigns = [f"    v = {k};" for k in range(65536)]
        src = "\n".join(head + assigns + ["    CAMLreturn(v);", "}", ""])
        first = len(head) + 1  # line number of "v = 0;"

        started = time.monotonic()
        unit = parse_unit(src, "parity.c")
        diags = analyze_unit(unit, load_summaries())
        elapsed = time.monotonic() - started

        flagged = {d.line for d in diags if d.rule_id == "NAKED_POINTER"}
        want = {first + k for k in range(65536) if k % 2 == 0}
        assert flagged == want
        assert all(
            d.severity == "error" for d in diags if d.rule_id == "NAKED_POINTER"
        )
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# -- 6. a hundred ~30-line stubs under a minute ------------------------------------


def synth_stub(i: int) -> str:
    """Permutations of the corpus patterns: lock sections, abstract blocks,
    field reads in loops, branching error paths."""
    kind = i % 4
    name = f"stub_synth_{i}"
    if kind == 0:
        return f"""\
value {name}(value handle, value arg)
{{
    CAMLparam2(handle, arg);
    CAMLlocal1(result);
    char **ptr;
    int rc;
    int code;

    code = Int_val(arg);
    ptr = Data_custom_val(handle);
    rc = side_call_{i}(*ptr, code);

    caml_enter_blocking_section();
    rc = slow_call_{i}(rc, code);
    caml_leave_blocking_section();

    if (rc == -1)
        caml_failwith("slow_call_{i} failed");

    result = Val_int(rc);
    CAMLreturn(result);
}}
"""
    if kind == 1:
        return f"""\
value {name}(value size, value tag)
{{
    CAMLparam2(size, tag);
    CAMLlocal1(result);
    struct mmap_interface *intf;
    void *addr;
    int len;

    len = Int_val(size);
    result = caml_alloc(4, Abstract_tag);

    caml_enter_blocking_section();
    addr = map_call_{i}(len);
    caml_leave_blocking_section();

    if (!addr)
        caml_failwith("map_call_{i} error");

    intf = Data_abstract_val(result);
    *intf = (struct mmap_interface){{ addr, len }};
    CAMLreturn(result);
}}
"""
    if kind == 2:
        return f"""\
value {name}(value list, value limit)
{{
    CAMLparam2(list, limit);
    CAMLlocal2(cell, acc);
    int total;
    int bound;

    total = 0;
    bound = Int_val(limit);
    cell = list;
    while (Is_block(cell)) {{
        acc = Field(cell, 0);
        total = total + Int_val(acc);
        if (total > bound)
            break;
        cell = Field(cell, 1);
    }}
    CAMLreturn(Val_int(total));
}}
"""
    return f"""\
value {name}(value mode, value arg)
{{
    CAMLparam2(mode, arg);
    CAMLlocal1(out);
    int selector;
    int rc;

    selector = Int_val(mode);
    rc = 0;
    switch (selector) {{
    case 0:
        rc = fast_call_{i}(Int_val(arg));
        break;
    case 1:
        caml_enter_blocking_section();
        rc = slow_call_{i}(selector, 0);
        caml_leave_blocking_section();
        break;
    default:
        caml_invalid_argument("mode");
    }}
    out = Val_int(rc);
    CAMLreturn(out);
}}
"""


def test_criterion_6_hundred_stub_scale(tmp_path):
    with criterion(6, "100 synthetic stubs analyzed in <60s"):
        c_src = "#include <caml/mlvalues.h>\n#include <caml/memory.h>\n\n"
        c_src += "struct mmap_interface { void *addr; int len; };\n\n"
        c_src += "\n".join(synth_stub(i) for i in range(100))
        ml_src = "".join(
            f'external synth_{i} : handle -> int -> int = "stub_synth_{i}"\n'
            for i in range(100)
        )
        c_path = tmp_path / "synth.c"
        ml_path = tmp_path / "synth.ml"
        c_path.write_text(c_src)
        ml_path.write_text(ml_src)

        started = time.monotonic()
        diags, _ = run([str(ml_path), str(c_path)])
        elapsed = time.monotonic() - started

        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        # the synthetic stubs are clean by construction
        assert not [d for d in diags if d.severity == "error"]


# -- 7. determinism ----------------------------------------------------------------


def corpus_paths(directory: str) -> list[str]:
    root = CORPUS / directory
    return sorted(str(p) for p in root.iterdir() if p.suffix in (".ml", ".c"))


def full_corpus_outputs():
    chunks = []
    logs = []
    for directory in ("buggy", "fixed"):
        diags, _ = run(corpus_paths(directory), summaries=SUMMARIES)
        chunks.extend(d.render() + "\n" for d in diags)
        logs.append(emit_sarif(diags))
    return "".join(chunks), logs


def test_criterion_7_byte_identical_runs():
    with criterion(7, "consecutive corpus runs byte-identical"):
        text_a, sarif_a = full_corpus_outputs()
        text_b, sarif_b = full_corpus_outputs()
        assert text_a == text_b
        assert sarif_a == sarif_b
        assert text_a  # not vacuous: the buggy half does report


# -- 8. SARIF output validates -----------------------------------------------------


def test_criterion_8_sarif_schema_validity(sarif_subset_schema):
    with criterion(8, "SARIF validates against 2.1.0 schema subset"):
        _, logs = full_corpus_outputs()
        for log_text in logs:
            jsonschema.validate(json.loads(log_text), sarif_subset_schema)
        jsonschema.validate(json.loads(emit_sarif([])), sarif_subset_schema)
