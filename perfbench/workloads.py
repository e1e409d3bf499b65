"""Seeded input generators and oracles for the three benchmark workloads.

Each generator returns a `Workload`: the files stublint reads (in the order
they go on the command line), the extra options of the invocation, and the
oracle, i.e. the set of (rule, file, line) findings above note severity that
a correct stublint must report.  The oracles come from how the inputs are
built, never from running stublint.  Paths are relative to the directory the
workload is written into; `materialize` writes it and returns the argv.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus"
CORPUS_PAIRS = {
    "buggy": [
        "arity_refactor",
        "custom_deref",
        "stale_abstract_ptr",
        "tag_cons_store",
        "void_stub",
    ],
    "fixed": [
        "abstract_store_fixed",
        "arity_ok",
        "custom_deref_fixed",
        "emptylist_ok",
        "void_ok",
    ],
}

PARITY_ASSIGNS = 65536
SYNTH_STUBS = 2000
CORPUS_REPLICAS = 200

_FINDING_RE = re.compile(r"^(.*?):(\d+):(\d+): (error|warning|note): (\w+): ")


@dataclass
class Workload:
    name: str
    inputs: dict[str, str]  # .ml/.c inputs, command-line order
    extras: dict[str, str] = field(default_factory=dict)  # e.g. summaries
    options: list[str] = field(default_factory=list)  # relative paths
    expected: frozenset = frozenset()  # (rule, relative file, line)
    symbols: dict[str, int] = field(default_factory=dict)  # C name -> arity
    functions: int = 0

    @property
    def lines(self) -> int:
        return sum(text.count("\n") for text in self.inputs.values())

    def option(self, flag: str) -> str | None:
        if flag not in self.options:
            return None
        return self.options[self.options.index(flag) + 1]


def materialize(workload: Workload, root: str) -> list[str]:
    """Write the workload under `root`; return the argv for `cli.main`."""
    for rel, text in {**workload.extras, **workload.inputs}.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    options = [
        opt if opt.startswith("--") else os.path.join(root, opt)
        for opt in workload.options
    ]
    return options + [os.path.join(root, rel) for rel in workload.inputs]


def findings_of(text: str, root: str) -> set:
    """(rule, relative file, line) of every finding above note severity in
    stublint's text output."""
    found = set()
    prefix = os.path.join(root, "")
    for line in text.splitlines():
        m = _FINDING_RE.match(line)
        if m is None:
            raise ValueError(f"unparseable finding line: {line!r}")
        file, lineno, _col, severity, rule = m.groups()
        if severity == "note":
            continue
        if file.startswith(prefix):
            file = file[len(prefix):]
        found.add((rule, file, int(lineno)))
    return found


def wrong_verdicts(expected: frozenset, found: set) -> int:
    """Findings missing from, or extra to, the oracle."""
    return len(expected ^ found)


def _tag(rng: random.Random) -> str:
    return f"{rng.randrange(16**6):06x}"


# -- parity: criterion 5's single function -----------------------------------


def parity(seed: int, assigns: int = PARITY_ASSIGNS) -> Workload:
    """One function storing each of 0..assigns-1 into a value, in a seeded
    order.  Every even constant has a clear low bit: NAKED_POINTER."""
    rng = random.Random(seed)
    tag = _tag(rng)
    consts = list(range(assigns))
    rng.shuffle(consts)
    head = [
        f"value probe_{tag}(value unused)",
        "{",
        "    CAMLparam1(unused);",
        "    CAMLlocal1(v);",
    ]
    body = [f"    v = {k};" for k in consts]
    c_src = "\n".join(head + body + ["    CAMLreturn(v);", "}", ""])
    ml_src = f'external probe_{tag} : int -> int = "probe_{tag}"\n'
    first = len(head) + 1
    expected = frozenset(
        ("NAKED_POINTER", "parity.c", first + j)
        for j, k in enumerate(consts)
        if k % 2 == 0
    )
    return Workload(
        "parity",
        {"parity.ml": ml_src, "parity.c": c_src},
        options=[
            "--sarif", "parity.sarif",
            "--header-out", "parity.h",
            "--harness-out", "parity_harness.c",
        ],
        expected=expected,
        symbols={f"probe_{tag}": 1},
        functions=1,
    )


# -- synth: criterion 6's synth_stub permutations ----------------------------


def synth_stub(i: int) -> str:
    """Permutations of the corpus patterns: lock sections, abstract blocks,
    field reads in loops, branching error paths.  Clean by construction."""
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


def synth(seed: int, stubs: int = SYNTH_STUBS) -> Workload:
    """`stubs` synth_stub permutations in one .c, each with its external.
    The seed picks the stub numbers (all seven digits, so every seed lexes
    the same number of characters) and their order; each of the four stub
    kinds appears stubs/4 times."""
    rng = random.Random(seed)
    slots = rng.sample(range(250_000, 2_500_000), stubs)
    numbers = [4 * slot + n % 4 for n, slot in enumerate(slots)]
    rng.shuffle(numbers)
    c_src = "#include <caml/mlvalues.h>\n#include <caml/memory.h>\n\n"
    c_src += "struct mmap_interface { void *addr; int len; };\n\n"
    c_src += "\n".join(synth_stub(i) for i in numbers)
    ml_src = "".join(
        f'external synth_{i} : handle -> int -> int = "stub_synth_{i}"\n'
        for i in numbers
    )
    return Workload(
        "synth",
        {"synth.ml": ml_src, "synth.c": c_src},
        options=[
            "--sarif", "synth.sarif",
            "--header-out", "synth.h",
            "--harness-out", "synth_harness.c",
        ],
        symbols={f"stub_synth_{i}": 2 for i in numbers},
        functions=stubs,
    )


# -- corpus: the buggy and fixed pairs, replicated ---------------------------

# The first `name(` on a line that starts in column 0 with a letter: the
# function each corpus file defines there (CAMLprim stubs, static helpers).
_DEFINED_RE = re.compile(r"^[A-Za-z].*?\b(\w+)\(", re.M)
_EXTERNAL_RE = re.compile(r"^external (\w+)", re.M)
_DECL_RE = re.compile(r"^external \w+ ?:([^=]*)=\s*\"(\w+)\"", re.M)


def _expected_errors() -> dict[str, tuple[int, str]]:
    expected = {}
    text = (CORPUS / "buggy" / "expected_errors.txt").read_text()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            m = re.fullmatch(r"(\S+)\.c:(\d+): (\w+)", line)
            expected[m.group(1)] = (int(m.group(2)), m.group(3))
    return expected


def _rename(text: str, names, tag: str) -> str:
    if not names:
        return text
    pattern = re.compile(r"\b(" + "|".join(sorted(names)) + r")\b")
    return pattern.sub(lambda m: f"{m.group(1)}_{tag}", text)


def corpus(seed: int, replicas: int = CORPUS_REPLICAS) -> Workload:
    """Every corpus pair copied `replicas` times, one directory per
    (buggy|fixed, replica).  Each copy renames its C definitions and OCaml
    externals with a tag of its own, so no two copies share a symbol and
    check_arity matches every external to its own copy.  The seed picks the
    tags and the order of the directories on the command line."""
    rng = random.Random(seed)
    expected_errors = _expected_errors()
    sources = {
        (d, base, ext): (CORPUS / d / f"{base}{ext}").read_text()
        for d, bases in CORPUS_PAIRS.items()
        for base in bases
        for ext in (".ml", ".c")
    }
    copies = [(d, r) for r in range(replicas) for d in CORPUS_PAIRS]
    tags = [f"{d[0]}{r:03d}x{_tag(rng)}" for d, r in copies]
    order = list(range(len(copies)))
    rng.shuffle(order)
    inputs = {}
    expected = set()
    symbols = {}
    functions = 0
    for index in order:
        d, _r = copies[index]
        tag = tags[index]
        for base in CORPUS_PAIRS[d]:
            c_src = sources[(d, base, ".c")]
            ml_src = sources[(d, base, ".ml")]
            defined = set(_DEFINED_RE.findall(c_src))
            functions += len(defined)
            externals = set(_EXTERNAL_RE.findall(ml_src))
            inputs[f"{tag}/{base}.ml"] = _rename(ml_src, defined | externals, tag)
            inputs[f"{tag}/{base}.c"] = _rename(c_src, defined, tag)
            for decl in _DECL_RE.finditer(inputs[f"{tag}/{base}.ml"]):
                symbols[decl.group(2)] = decl.group(1).count("->")
            if d == "buggy":
                line, rule = expected_errors[base]
                expected.add((rule, f"{tag}/{base}.c", line))
    summaries = "stublint-summaries.txt"
    return Workload(
        "corpus",
        inputs,
        extras={summaries: (CORPUS / summaries).read_text()},
        options=[
            "--summaries", summaries,
            "--sarif", "corpus.sarif",
            "--header-out", "corpus.h",
            "--harness-out", "corpus_harness.c",
        ],
        expected=frozenset(expected),
        symbols=symbols,
        functions=functions,
    )


GENERATORS = {"parity": parity, "synth": synth, "corpus": corpus}
