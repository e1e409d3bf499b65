"""Forms that C defines to do the same give the same findings.

One table of rewrites maps a statement to one that means the same: `?:`,
`&&` and `||` to the `if` that CIL makes of them, a comma to a sequence
of statements, and a store to a store through a temporary.  Each rewrite
keeps the statement on its own line, so the findings of both forms
compare by (line, rule, severity), and only columns may move.  The
rewrites run on hand-written lock moves, GC points, raises and stores,
and on a fixed-seed sample of `stubgen` stubs, with one `analyze_unit`
per form.

The conditions are ones the constant fold cannot decide: an `if`'s edges
are not refined by its condition (ROADMAP item 7), while the fold rules
out an arm of `?:`, `&&` or `||`.  The comma rewrite takes no lock move
before the comma: calls and dereferences are judged against the lock
state at the statement's entry, so `A, B;` and `A; B;` disagree when `A`
moves the lock.
"""

import random
import re

import pytest
import stubgen

from stublint.c_frontend import parse_tokens, preprocess_local
from stublint.cli import analyze_unit
from stublint.lock_analysis import load_summaries

CONDITIONS = ["g()", "Is_block(a)", "Int_val(b) == 3", "p->len < n"]

LOCK_MOVES = {"caml_enter_blocking_section()", "caml_leave_blocking_section()"}

# The first words of the declarations `stubgen` draws, which no rule takes.
DECLARES = {"int", "long", "char", "value"}

# Each rule maps (c, A, B) to the two forms; A and B are expressions.
REWRITES = {
    "?:": lambda c, a, b: (f"{c} ? ({a}) : ({b});", f"if ({c}) {a}; else {b};"),
    "&&": lambda c, a, b: (f"{c} && ({a});", f"if ({c}) {a};"),
    "||": lambda c, a, b: (f"{c} || ({a});", f"if (!({c})) {a};"),
    ",": lambda c, a, b: (f"{a}, {b};", f"{{ {a}; {b}; }}"),
}

# `v = E;` to `t = E; v = t;`, through a temporary of the target's pointer
# type, or of an integer type as wide as `value`, so that only the store
# into the target is judged as one into an OCaml value
_STORE = re.compile(r"(\w+) = (.+)")
TEMPORARIES = "long tl; char *tq; struct blk *tp;"
_TEMP = {"q": "tq", "p": "tp"}


def store_forms(expr: str) -> tuple[str, str] | None:
    match = _STORE.fullmatch(expr)
    if match is None:
        return None
    target, value = match.groups()
    temp = _TEMP.get(target, "tl")
    return f"{expr};", f"{{ {temp} = {value}; {target} = {temp}; }}"


def findings(source: str) -> list[tuple]:
    pre = preprocess_local(source, "m.c")
    diags = analyze_unit(parse_tokens(pre.tokens, "m.c"), load_summaries())
    return sorted((d.line, d.rule_id, d.severity) for d in diags + list(pre.notes))


# -- hand-written statements --------------------------------------------------

STATEMENTS = [
    "caml_enter_blocking_section()",
    "caml_leave_blocking_section()",
    "caml_alloc(1, 0)",
    "caml_minor_collection()",
    'caml_failwith("x")',
    "v = 2",
    "v = Val_int(1)",
    "q = String_val(a)",
    "n = 4",
    "n = *q",
    "n = Long_val(Field(a, 0))",
]

# Before the form: the lock held, released, or released on one path only.
PRELUDES = ["", "caml_enter_blocking_section();", "if (h()) caml_enter_blocking_section();"]


def stub(name: str, prelude: str, form: str) -> str:
    """A stub whose statements after `form`, on fixed lines, observe what
    it left: the constant of `n`, the staleness of `q`, the lock."""
    return (
        f"CAMLprim value {name}(value a, value b)\n{{\n"
        "    CAMLparam2(a, b);\n    CAMLlocal1(v);\n"
        f"    long n = 1; {TEMPORARIES}\n"
        "    char *q = String_val(b);\n"
        f"    {prelude}\n"
        f"    {form}\n"
        "    v = n;\n"
        "    n = *q;\n"
        "    n = Long_val(Field(b, 0));\n"
        "    caml_leave_blocking_section();\n"
        "    CAMLreturn(v);\n}\n"
    )


def hand_written_cases() -> list[tuple[str, str, str]]:
    """(rule, the first form, the rewritten form) of every rewrite of the
    hand-written statements: A from every statement and B from every
    statement for `?:` and `,`, and a store to a temporary for each
    store."""
    cases = []
    for a in STATEMENTS:
        for rule, rewrite in REWRITES.items():
            if rule == "," and a in LOCK_MOVES:
                continue
            for b in STATEMENTS if rule in ("?:", ",") else ["0"]:
                cases.append((rule, *rewrite("g()", a, b)))
        stored = store_forms(a)
        if stored is not None:
            cases.append(("store", *stored))
    return cases


def test_the_hand_written_rewrites_agree():
    cases = hand_written_cases()
    sources = [[], []]
    for number, (_, *forms) in enumerate(cases):
        for prelude_number, prelude in enumerate(PRELUDES):
            name = f"f{number}_{prelude_number}"
            for side, form in enumerate(forms):
                sources[side].append(stub(name, prelude, form))
    first, rewritten = (findings("".join(side)) for side in sources)
    assert "UNSUPPORTED_CONSTRUCT" not in {rule for _, rule, _ in first + rewritten}
    assert len(first) > len(cases)  # the observers see something
    if first != rewritten:
        lines = {line for line, *_ in set(first) ^ set(rewritten)}
        text = "".join(sources[0]).splitlines()
        shown = [text[line - 1].strip() for line in sorted(lines)]
        pytest.fail(f"the forms disagree at: {shown}")


# -- stubgen stubs -----------------------------------------------------------


class _Rewritten(stubgen._Gen):
    """`stubgen`'s stubs, with each expression statement drawn with a
    second one and a rule of the table, as both forms."""

    def __init__(self, rng: random.Random):
        super().__init__(rng)
        self.forms: list[tuple[str, str]] = []

    def statement(self) -> str:
        return super().simple()[0]

    def simple(self) -> list[str]:
        a = self.statement()
        if a.split()[0] in DECLARES:
            return [a]
        a, rule = a[:-1], self.pick(*REWRITES, "store")
        if rule == "store":
            forms = store_forms(a)
        else:
            b = self.statement()
            while b.split()[0] in DECLARES:
                b = self.statement()
            b = b[:-1]
            if rule == "," and a in LOCK_MOVES:
                a, b = b, a
            forms = REWRITES[rule](self.pick(*CONDITIONS), a, b)
        if forms is None or rule == "," and a in LOCK_MOVES:
            return [f"{a};"]
        self.forms.append(forms)
        return [f"@{len(self.forms) - 1}@"]


def stubgen_pairs(seed: int, count: int) -> list[tuple[str, str]]:
    gen = _Rewritten(random.Random(seed))
    pairs = []
    for number in range(count):
        start = len(gen.forms)
        text = gen.stub(f"m{number}")
        text = text.replace("    int k;\n", f"    int k; {TEMPORARIES}\n")
        forms = gen.forms[start:]
        pairs.append(
            tuple(
                re.sub(r"@(\d+)@", lambda m: forms[int(m[1]) - start][side], text)
                for side in (0, 1)
            )
        )
    return pairs


def test_the_stubgen_rewrites_agree():
    pairs = stubgen_pairs(seed=1611, count=120)
    compared = 0
    for first, rewritten in pairs:
        assert findings(first) == findings(rewritten), first
        compared += first != rewritten
    assert compared > 100
