"""Tokenizer for the C stub subset.

Comments are gone by the time this runs (the preprocessor blanks them), so
the lexer only deals with identifiers, numbers, string/char literals and
punctuation.  Positions are 1-based.

One master pattern is run with `finditer` over each line.  Every match is
the blanks before a token followed by one of: a token, a `bad` character
that starts no token (a lex error at its position), or the end of the line.
That last alternative lets a run of trailing blanks match once instead of
being rescanned from every position in it.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class CLexError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # "ident" | "num" | "str" | "char" | "punct"
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    [\ \t\r\f\v]*
    (?:
      (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<num>(?:0[xX][0-9a-fA-F]+|\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)
        [uUlLfF]*)
    | (?P<str>"(?:\\.|[^"\\\n])*")
    | (?P<char>'(?:\\.|[^'\\\n])')
    | (?P<punct>->|\+\+|--|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=
        |%=|&=|\|=|\^=|\.\.\.|[-+*/%&|^!~<>=?:;,.(){}\[\]])
    | (?P<bad>.)
    | \Z
    )
    """,
    re.VERBOSE,
)


# builds a Token more cheaply than Token(...), whose __new__ NamedTuple
# writes in Python
_new_tuple = tuple.__new__


def lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for line, line_text in enumerate(text.split("\n"), start=1):
        for m in _TOKEN_RE.finditer(line_text):
            kind = m.lastgroup
            if kind is None:  # blanks up to the end of the line
                continue
            if kind == "bad":
                raise CLexError(
                    f"unexpected character {m[kind]!r}", line, m.start(kind) + 1
                )
            append(_new_tuple(Token, (kind, m[kind], line, m.start(kind) + 1)))
    return tokens
