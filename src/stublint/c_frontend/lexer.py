"""Tokenizer for the C stub subset.

Comments are gone by the time this runs (the preprocessor blanks them), so
the lexer only deals with identifiers, numbers, string/char literals and
punctuation.  Positions are 1-based.

One master pattern is run with `finditer` once over the whole text.  Every
match is the blanks before a token followed by one of: a token, a newline
(which starts the next line: its number and the offset columns count
from), a `bad` character that starts no token (a lex error at its
position), or the end of the text.  So a run of blanks before a newline
matches once instead of being rescanned from every position in it.
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
    | (?P<char>'(?:\\.|[^'\\\n])+')
    | (?P<punct>->|\+\+|--|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=
        |%=|&=|\|=|\^=|\.\.\.|[-+*/%&|^!~<>=?:;,.(){}\[\]])
    | (?P<nl>\n)
    | (?P<bad>.)
    | \Z
    )
    """,
    re.VERBOSE,
)


# builds a Token more cheaply than Token(...), whose __new__ NamedTuple
# writes in Python
_new_tuple = tuple.__new__

# each kind by the number of its group, which a match gives as `lastindex`
# more cheaply than the name, as `lastgroup`
_KINDS = {index: kind for kind, index in _TOKEN_RE.groupindex.items()}
_NL = _TOKEN_RE.groupindex["nl"]
_BAD = _TOKEN_RE.groupindex["bad"]


def lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    kinds = _KINDS
    line = 1
    before = -1  # the offset just before the line's first column
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group == _NL:
            line += 1
            before = m.start(group)
            continue
        if group is None:  # blanks up to the end of the text
            continue
        col = m.start(group) - before
        if group == _BAD:
            raise CLexError(f"unexpected character {m[group]!r}", line, col)
        append(_new_tuple(Token, (kinds[group], m[group], line, col)))
    return tokens
