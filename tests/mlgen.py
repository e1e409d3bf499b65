"""Seeded random OCaml sources, and the externals stublint reads from them.

`sources(seed, count)` builds one `.ml` file per index from the stdlib
`random` module, so a seed always gives the same text.  The files mix what
the external scanner has to tell apart:

- comments that nest, hold strings with `*)` in them, and may be left open
  at the end of a file; strings with escaped quotes;
- char literals such as `'"'` and `'\\''`, and type variables `'a`;
- `->` inside `( )`, `[ ]`, object types `< .. >` and `[> `A ]`;
- per-argument `[@unboxed]`/`[@untagged]`, trailing `[@@noalloc]` and the
  other declaration attributes, and old-style `"noalloc"` strings;
- one and two C names, `%` builtins, operator names such as `( +! )`;
- `module M = struct ... end`, `sig`, `begin` and `object` blocks;
- every malformed form: a missing name, `:`, `=` or C name, an unbalanced
  close, arity 0, a resync at a keyword, and an operator name, string or
  comment left open at the end of the file;
- short soups of the tokens above.

`golden_text()` renders every field of every declaration and every error
the scanner gives on those files.  tests/data/golden_externals.txt holds
that text; regenerate it after an intended change with

    PYTHONPATH=src python tests/mlgen.py > tests/data/golden_externals.txt
"""

from __future__ import annotations

import random
import sys

from stublint.ml_frontend import parse_ml_externals

GOLDEN_SEED = 20231108
GOLDEN_FILES = 400
REGENERATE = (
    "PYTHONPATH=src python tests/mlgen.py > tests/data/golden_externals.txt"
)

_ATOMS = [
    "int", "float", "int32", "int64", "nativeint", "unit", "string", "bool",
    "handle", "'a", "'a list", "'a -> 'b", "(int * float)", "(int -> int)",
    "((float))", "(float [@unboxed])", "float [@unboxed]", "int [@untagged]",
    "(int [@untagged])", "float [@ocaml.unboxed]", "int64 [@unboxed]",
    "[ `A | `B of int -> int ]", "[> `A ]", "[< `A | `B > `A ]",
    "< m : int -> int; .. >", "< get : 'a -> unit >", "(int, string) t",
    "(int -> float [@unboxed])", "[ `A of (float [@unboxed]) ]",
    "(float) [@unboxed]", "((int)) [@untagged]", "M.t", "float array",
    "[ `A ] [@unboxed]", "(float [@unboxed] [@untagged])",
]
_TRAILING = [
    "", "", "", "[@@noalloc]", "[@@unboxed]", "[@@untagged]",
    "[@@unboxed] [@@noalloc]", "[@@ocaml.noalloc]", "[@@untagged] [@@noalloc]",
]
_NAMES = ["f", "get_x", "caml_stub", "x'", "_priv", "( +! )", "( let* )",
          "( * )", "( mod )", "()"]
_NOISE = [
    "type t",
    "type 'a box = { v : 'a }",
    "let x = 1",
    "let q = '\"'",
    "let c = '\\''",
    "let s = \"external hidden : int -> int = \\\"no\\\"\"",
    "let f (a : int) = a - 1",
    "(* external commented : unit -> unit = \"gone\" *)",
    "(* outer (* inner \"*)\" still inner *) still outer *)",
    "(* a string \"with \\\" quote *) inside\" keeps it open *)",
    "open Printf",
    "include Foo",
    "exception E of string",
    "val v : int -> int",
    "let ( +! ) a b = a + b",
    "let g = fun x -> x",
    "let arr = [| 1; 2 |]",
]
_SOUP = [
    "external", "(", ")", "[", "]", "<", ">", "->", "=", ":", "[@", "[@@",
    "unboxed", "untagged", "noalloc", "\"c\"", "\"noalloc\"", "int", "float",
    "'a", "'\"'", "module", "struct", "sig", "end", "begin", "object", "let",
    "type", "M", "*", ";", "..", "`A", "|", "(*", "*)",
]


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.count = 0

    def pick(self, options):
        return self.rng.choice(options)

    def c_name(self) -> str:
        self.count += 1
        return f"c_{self.count}"

    def type_expr(self, arity: int) -> str:
        parts = [self.pick(_ATOMS) for _ in range(arity + 1)]
        return " -> ".join(parts)

    def names(self) -> str:
        r = self.rng.random()
        if r < 0.1:
            return '"%identity"'
        if r < 0.5:
            return f'"{self.c_name()}"'
        if r < 0.85:
            return f'"{self.c_name()}" "{self.c_name()}"'
        if r < 0.9:
            return f'"{self.c_name()}" "noalloc"'
        if r < 0.95:
            return f'"{self.c_name()}" "{self.c_name()}" "noalloc"'
        return f'"{self.c_name()}" "{self.c_name()}" "{self.c_name()}"'

    def external(self) -> str:
        arity = self.rng.choice([1, 1, 2, 3, 5, 6, 7])
        sep = self.pick([" ", "\n  ", " (* note *) "])
        return (
            f"external {self.pick(_NAMES)} :{sep}{self.type_expr(arity)}"
            f"{sep}= {self.names()} {self.pick(_TRAILING)}"
        ).rstrip()

    def malformed(self) -> str:
        ty = self.type_expr(self.rng.randint(1, 3))
        return self.pick(
            [
                f'external : {ty} = "c"',  # no name
                f'external 3 : {ty} = "c"',
                f'external f {ty} = "c"',  # no ':'
                f"external f : {ty}\nlet y = 2",  # no '=', resync at `let`
                f"external f : {ty}\ntype u",
                f"external f : {ty} = 3",  # no C name
                f"external f : {ty} =",
                'external f : int) -> int = "c"',  # unbalanced close
                'external f : (int -> int] = "c"',
                'external f : int -> int > = "c"',  # `>` closes nothing
                'external f : int = "c"',  # arity 0
                'external f : (int -> int) = "c"',
                'external f : [@unboxed] = "c"',
            ]
        )

    def soup(self) -> str:
        return " ".join(self.pick(_SOUP) for _ in range(self.rng.randint(3, 25)))

    def items(self, depth: int) -> list[str]:
        lines = []
        for _ in range(self.rng.randint(1, 6)):
            r = self.rng.random()
            if r < 0.4:
                lines.append(self.external())
            elif r < 0.55:
                lines.append(self.pick(_NOISE))
            elif r < 0.67:
                lines.append(self.malformed())
            elif r < 0.75:
                lines.append(self.soup())
            elif depth < 2:
                opener = self.pick(
                    [
                        f"module {self.pick(['M', 'Inner', 'X'])} = struct",
                        "module type S = sig",
                        "module N : sig",
                        "let b = begin",
                        "let o = object",
                        "module Q =\n  struct",
                    ]
                )
                lines.append(opener)
                lines.extend("  " + line for line in self.items(depth + 1))
                lines.append("end")
            else:
                lines.append(self.external())
        return lines

    def source(self) -> str:
        text = "\n".join(self.items(0)) + "\n"
        r = self.rng.random()
        if r < 0.03:
            text += "external ( +! : int -> int"  # operator name left open
        elif r < 0.06:
            text += 'let s = "never closed\nexternal f : int -> int = "c"\n'
        elif r < 0.09:
            text += '(* open (* nested *) "str *)"\nexternal f : int -> int = "c"\n'
        return text


def sources(seed: int = GOLDEN_SEED, count: int = GOLDEN_FILES) -> list[tuple[str, str]]:
    """(file name, OCaml source) of `count` random files."""
    gen = _Gen(random.Random(seed))
    return [(f"m{i:03d}.ml", gen.source()) for i in range(count)]


def externals(file_name: str, source: str) -> list[str]:
    """Each declaration and error of one file, rendered one per line."""
    decls, errors = parse_ml_externals(source, file_name)
    lines = []
    for d in decls:
        file, line, col = d.source_loc
        lines.append(
            f"{file}:{line}:{col}: external {d.ocaml_name} byte={d.byte_name}"
            f" native={d.native_name} arity={d.arity}"
            f" args={','.join(d.arg_kinds)} returns={d.return_kind}"
        )
    for e in errors:
        lines.append(f"{e.file}:{e.line}:{e.column}: error: {e.message}")
    return lines


def golden_text(seed: int = GOLDEN_SEED, count: int = GOLDEN_FILES) -> str:
    return "".join(
        line + "\n"
        for name, source in sources(seed, count)
        for line in externals(name, source)
    )


if __name__ == "__main__":
    sys.stdout.write(golden_text())
