"""Seeded random stubs, and the normalized findings stublint reports on them.

`stubs(seed, count)` builds one small C stub per file from the stdlib
`random` module, so a seed always gives the same text.  The statements mix
every shape the analyses tell apart: named calls (lock transitions, GC
points, runtime calls, macros), plain and compound assignments to names,
nested assignments such as `v = (n = 2)` and `int z = (v = 4);`, `&name`,
`++`/`--` on names, dereferences through `*`, `->` and `[]`, declarations
with initializers, if/else, while, do-while and for loops, switch with
fallthrough, break, continue, return, goto, inline asm, plain labels and
labelled blocks.  Each file also exercises the preprocessor: block and line
comments (with comment markers and quotes inside string literals and
comments), object-like and one-parameter function-like `#define`s and their
uses, a continued `#define`, and `#if`/`#elif`/`#else` guards on known and
unknown macros.

`golden_text()` renders what stublint finds on those stubs, one finding per
line.  tests/data/golden_findings.txt holds that text; regenerate it after
an intended change of findings with

    PYTHONPATH=src python tests/stubgen.py > tests/data/golden_findings.txt
"""

from __future__ import annotations

import random
import sys

from stublint.c_frontend import parse_tokens, preprocess_local
from stublint.cli import analyze_unit
from stublint.diagnostics import normalize
from stublint.lock_analysis import load_summaries

GOLDEN_SEED = 20230727
GOLDEN_STUBS = 500
REGENERATE = (
    "PYTHONPATH=src python tests/stubgen.py > tests/data/golden_findings.txt"
)


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.labels = 0

    def pick(self, *options):
        return self.rng.choice(options)

    def k(self) -> int:
        return self.rng.randrange(9)

    def label(self) -> str:
        self.labels += 1
        return f"lbl{self.labels}"

    def value_expr(self) -> str:
        k = self.k()
        return self.pick(
            f"Val_int({k})",
            f"{k}",
            f"{2 * k}",
            "Tag_cons",
            "Val_unit",
            "Val_emptylist",
            f"(n = {k})",
            "caml_alloc(2, 0)",
            f"Field(a, {k})",
            'caml_copy_string("s")',
            "b",
            "n ? Val_int(1) : Val_int(2)",
            f"(Val_int({k}) + 1)",
            f"({k} << 1)",
            "(value) p",
            f"(value) {2 * k}",
        )

    def int_expr(self) -> str:
        k = self.k()
        return self.pick(
            f"{k}",
            "Int_val(a)",
            f"n + {k}",
            "p->len",
            "*q",
            f"q[{k}]",
            f"helper(n, {k})",
            "Int_val(Field(v, 0))",
            f"(k = {k})",
            "sizeof(value)",
            "i++",
            "String_val(b)[0]",
        )

    def cond(self) -> str:
        return self.pick(
            "n > 2", "Is_block(a)", "!q", "k", "Int_val(b) == 3", "p->len < n"
        )

    def simple(self) -> list[str]:
        k = self.k()
        return [
            self.pick(
                f"{self.pick('v', 'w')} = {self.value_expr()};",
                f"{self.pick('n', 'k', 'i')} = {self.int_expr()};",
                f"n {self.pick('+=', '-=', '|=', '<<=')} {k};",
                self.pick("n++;", "--k;", "i--;", "++n;"),
                self.pick(
                    "p = Data_custom_val(a);",
                    "p = Data_abstract_val(v);",
                    "q = (char *) b;",
                    "q = String_val(a);",
                    "q = (char *) p + 1;",
                    "p = (struct blk *) Data_custom_val(w);",
                ),
                self.pick(
                    "p->len = n;",
                    "n = p->len + p[1].len;",
                    "*q = 0;",
                    "q[1] = 'c';",
                    "n = *p;",
                    f"Store_field(v, {k}, a);",
                    "n = Int_val(Field(b, 1));",
                    "(*p).len = 2;",
                ),
                self.pick(
                    "caml_enter_blocking_section();",
                    "caml_leave_blocking_section();",
                ),
                self.pick(
                    "caml_alloc_string(8);",
                    "caml_stat_free(q);",
                    "helper(n, k);",
                    "caml_minor_collection();",
                    "slow_io(q, n);",
                    "k = caml_hash(a) + helper(*q, p->len);",
                ),
                self.pick("take(&v);", "take(&n);", "q = (char *) &k;"),
                self.pick(
                    f"int z = (v = {k});",
                    f"value t = {2 * k};",
                    "long m = n + 1;",
                    "char *r = String_val(b);",
                    f"value u = Val_int({k}), y = {k};",
                ),
                self.pick(f"v = (n = {k});", f"v = w = {2 * k};"),
                self.pick(
                    "v = NIL;",
                    "w = TAG;",
                    "n = LEN + 1;",
                    "v = FIELD0(a);",
                    "p = HANDLE(b);",
                    f"v = BOX({k});",
                    f"w = TWICE({k});",
                    "caml_failwith(MSG);",
                    'caml_failwith("/* kept */ // kept");',
                    "q[0] = '/';",
                ),
            )
        ]

    def comment(self) -> list[str]:
        """A statement with comments before, after or around it."""
        stmt = self.simple()[0]
        before = self.pick("note", "a longer note", "it's")
        after = self.pick("trailing", "don't /* care")
        return self.pick(
            [f"/* {before} */ {stmt}"],
            [f"{stmt} // {after}"],
            [f"{stmt} /* trailing */"],
            ["/* spans", "   two lines */ " + stmt],
            ["// a line comment", stmt],
        )

    def guarded(self) -> list[str]:
        """Statements under an #if/#elif/#else guard."""
        out = [f"#if {self.guard()}", *self.simple()]
        if self.rng.random() < 0.5:
            out += [f"#elif {self.guard()}", *self.simple()]
        if self.rng.random() < 0.5:
            out += ["#else", *self.simple()]
        return out + ["#endif"]

    def guard(self) -> str:
        return self.pick(
            "LEN > 2",
            "LEN == 4 && defined(NIL)",
            "!defined(OCAML_OLD)",
            "defined OCAML_OLD || LEN < 3",
            "0",
            "1",
            "(LEN << 1) + 1 == 9",
            "HAVE_THREADS",
        )

    def body(self, depth: int, size: int, extra: str | None = None) -> list[str]:
        stmts = [self.stmt(depth) for _ in range(size)]
        if extra is not None:
            stmts.insert(self.rng.randrange(size + 1), [extra])
        return [line for stmt in stmts for line in stmt]

    def block(self, depth: int) -> list[str]:
        return ["{"] + _indent(self.body(depth + 1, self.rng.randint(1, 3))) + ["}"]

    def stmt(self, depth: int) -> list[str]:
        rng = self.rng
        if depth >= 2 or rng.random() < 0.6:
            return self.simple()
        shape = rng.randrange(13)
        if shape == 11:
            return self.comment()
        if shape == 12:
            return self.guarded()
        if shape == 0:
            out = [f"if ({self.cond()})"] + self.block(depth)
            if rng.random() < 0.5:
                out += ["else"] + self.block(depth)
            return out
        if shape == 1:
            return [f"if ({self.cond()})"] + _indent(self.simple())
        if shape == 2:
            inner = self.body(
                depth + 1,
                rng.randint(1, 3),
                self.pick("if (n > 5) break;", "if (k) continue;"),
            )
            return [f"while ({self.cond()}) {{"] + _indent(inner) + ["}"]
        if shape == 3:
            return ["do"] + self.block(depth) + [f"while ({self.cond()});"]
        if shape == 4:
            head = self.pick(
                "for (i = 0; i < n; i++)",
                "for (int j = 0; j < 4; j++)",
                "for (;;)",
                "for (i = n; i; i -= 2)",
            )
            inner = self.body(depth + 1, rng.randint(1, 3))
            if head == "for (;;)":
                inner.append("break;")
            return [head + " {"] + _indent(inner) + ["}"]
        if shape == 5:
            out = [f"switch ({self.pick('n', 'Int_val(a)', 'k & 3')}) {{"]
            for case in range(rng.randint(1, 3)):
                out.append(f"case {case}:")
                if rng.random() < 0.3:
                    out += _indent(self.block(depth))
                else:
                    out += _indent(self.body(depth + 1, rng.randint(0, 2)))
                if rng.random() < 0.6:
                    out.append("    break;")
            if rng.random() < 0.5:
                out += ["default:"] + _indent(self.body(depth + 1, 1))
            return out + ["}"]
        if shape == 6:
            return [f"{self.label()}: {{"] + _indent(
                self.body(depth + 1, rng.randint(1, 3))
            ) + ["}"]
        if shape == 7:
            return [f"{self.label()}:"] + self.simple()
        if shape == 8:
            return [f"if ({self.cond()}) goto {self.pick('out', 'again')};"]
        if shape == 9:
            return [self.pick('__asm__ volatile ("nop");', 'asm("mfence");')]
        return [f"if ({self.cond()})"] + _indent(
            [self.pick("CAMLreturn(v);", "return Val_unit;", 'caml_failwith("x");')]
        )

    def defines(self) -> list[str]:
        """A comment banner and the macros `simple` uses, some guarded."""
        return [
            "/* generated stub: \"quotes\" and 'ticks' stay in comments */",
            f"#define LEN {self.pick(2, 4)} /* words */",
            f"#define NIL {self.pick('Val_int(0)', 'Val_unit', '0')}",
            f"#define TAG {self.pick('Tag_cons', 'Val_emptylist', '3')}",
            '#define MSG "/* not a comment */ // nor this"',
            "#define FIELD0(x) Field(x, 0) // first field",
            "#define HANDLE(h) (*((struct blk **) Data_custom_val(h)))",
            "#define TWICE(x) \\",
            "    ((x) + (x))",
            f"#if {self.guard()}",
            "#define BOX(x) Val_int(x)",
            f"#elif {self.guard()}",
            "#define BOX(x) (x)",
            "#else",
            "#define BOX(x) ((value) (x))",
            "#endif",
            "",
        ]

    def stub(self, name: str) -> str:
        rng = self.rng
        head = self.defines() + [f"value {name}(value a, value b)", "{"]
        prologue = [
            self.pick(
                "CAMLparam2(a, b);",
                "CAMLparam2(a, b);",
                "CAMLparam2(a, b);",
                "CAMLparam1(a);",
                "CAMLparam1(a);\nCAMLxparam1(b);",
                "n = 0;",
            ),
            "CAMLlocal2(v, w);",
            f"int n = {self.k()};",
            "int k;",
            "int i;",
            "struct blk *p;",
            "char *q;",
        ]
        body = self.body(0, rng.randint(4, 10))
        tail = self.pick(["CAMLreturn(v);"], ["out:", "CAMLreturn(w);"], [])
        lines = _indent("\n".join(prologue).split("\n") + body + tail)
        return "\n".join(head + lines + ["}", ""])


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def stubs(seed: int = GOLDEN_SEED, count: int = GOLDEN_STUBS) -> list[tuple[str, str]]:
    """(file name, C source) of `count` random stubs."""
    gen = _Gen(random.Random(seed))
    return [(f"g{i:03d}.c", gen.stub(f"stub_g{i:03d}")) for i in range(count)]


def findings(file_name: str, source: str, table) -> list[str]:
    """Normalized findings of one stub file, rendered one per line."""
    pre = preprocess_local(source, file_name)
    unit = parse_tokens(pre.tokens, file_name)
    diags = analyze_unit(unit, table) + list(pre.notes)
    return [diag.render() for diag in normalize(diags)]


def golden_text(seed: int = GOLDEN_SEED, count: int = GOLDEN_STUBS) -> str:
    table = load_summaries()
    return "".join(
        line + "\n"
        for name, source in stubs(seed, count)
        for line in findings(name, source, table)
    )


if __name__ == "__main__":
    sys.stdout.write(golden_text())
