"""Tokenizer for the C stub subset: phases 1 to 3 of C99 5.1.1.2.

`scan` reads the text as it is on disk, once.  It takes out each
backslash-newline splice, skips comments and gives every token the 1-based
line and column on disk where it starts.  Literals keep their encoding
prefix (`L'a'`, `u8"s"`), and a number is a preprocessing number (C99
6.4.8), so `1UL`, `0x1F` and `1.5e+E` are one token each.

A token is the plain tuple (kind, text, line, col), one allocation each.
The preprocessor and the parser read its fields by unpacking or through
the index names KIND, TEXT, LINE and COL, as `ml_frontend` reads its own.

One master pattern is run with `finditer` over the whole text.  Every
match is the blanks before a token followed by one of: a token, a newline
(which starts the next line: its number and the offset columns count
from), a comment, a `#` and the rest of its line, a `bad` character that
starts no token, or the end of the text.  A `#` that is the first token of
its line makes its line one token of kind `dir`; any other `#` is bad.  A
bad character is a token too, so that one in a group that `#if` drops is
never an error: the preprocessor raises on it only when it keeps it.

A text with splices is scanned with them taken out, and the positions are
then mapped back to the disk through the columns where each one was cut.
"""

from __future__ import annotations

import re
from bisect import bisect_right


class CLexError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# A token: (kind, text, line, col), where kind is "ident", "num", "str",
# "char", "punct", "dir" or "bad"; and the position of each field
Token = tuple[str, str, int, int]
KIND, TEXT, LINE, COL = range(4)


# A string or char literal, with its prefix; a prefix that no complete
# literal follows is an identifier.
_STR = r'(?:u8|[LuU])?"(?:\\.|[^"\\\n])*"'
_CHAR = r"""[LuU]?'(?:\\.|[^'\\\n])+'"""

# Blanks come before every token.  A comment is a match of its own, as is a
# directive line, which runs to its end, over a comment that spans lines,
# and in whose literals a comment marker is text.
TOKEN_RE = re.compile(
    r"""
    [\ \t\r\f\v]*
    (?:
      (?P<ident>(?!LITERAL)[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>[(),;{}\[\]?:~]|->|\+\+|--|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=
        |\*=|/=|%=|&=|\|=|\^=|\.\.\.|/(?![/*])|\.(?![0-9])|[-+*%&|^!<>=])
    | (?P<num>\.?[0-9](?:[eEpP][+-]|[0-9A-Za-z_.])*)
    | (?P<str>STR)
    | (?P<char>CHAR)
    | (?P<nl>\n)
    | (?P<comment>//[^\n]*|/\*[^*]*\*+(?:[^*/][^*]*\*+)*/|/\*[\s\S]*)
    | (?P<hash>\#(?:[^\n"'/]+|"(?:\\.|[^"\\\n])*"?|'(?:\\.|[^'\\\n])*'?|//[^\n]*
        |/\*[^*]*\*+(?:[^*/][^*]*\*+)*/|/\*[\s\S]*|/)*)
    | (?P<bad>.)
    | (?P<end>\Z)
    )
    """.replace("LITERAL", "STR|CHAR").replace("STR", _STR).replace("CHAR", _CHAR),
    re.VERBOSE,
)


# the token kinds by the number of their group, which a match gives as
# `lastindex` more cheaply than the name, as `lastgroup`.  The commonest
# come first, and a punctuator that is never the start of a longer one
# first among them: an alternative costs a try for every token before it.
_KINDS = (None, "ident", "punct", "num", "str", "char")
_GROUPS = ("nl", "comment", "hash", "end")
_NL, _COMMENT, _HASH, _END = map(TOKEN_RE.groupindex.get, _GROUPS)


def scan(text: str) -> tuple[list[Token], list[int]]:
    """The tokens of `text`, and the indexes in it, in order, of the tokens
    the preprocessor must look at: each directive line, as one token of
    kind `dir` whose text runs from its `#` to the line's end, and each bad
    character outside one."""
    if "\\\n" not in text:
        return _scan(text)
    pieces = text.split("\\\n")
    tokens, marks = _scan("".join(pieces))
    # the line and column of the spliced text where each piece after a
    # splice starts; a token at or past the k-th of these is k lines further
    # down on disk, and on the line of the k-th, left of it by its column
    cuts = [(1, 1)]
    for piece in pieces[:-1]:
        line, col = cuts[-1]
        lines = piece.split("\n")
        col = len(lines[-1]) + (1 if len(lines) > 1 else col)
        cuts.append((line + len(lines) - 1, col))
    for i, (kind, word, line, col) in enumerate(tokens):
        k = bisect_right(cuts, (line, col)) - 1
        if k:
            if cuts[k][0] == line:
                col -= cuts[k][1] - 1
            tokens[i] = (kind, word, line + k, col)
    return tokens, marks


def _scan(text: str) -> tuple[list[Token], list[int]]:
    tokens: list[Token] = []
    marks: list[int] = []
    append, kinds, nl, end = tokens.append, _KINDS, _NL, _END
    line = 1
    before = -1  # the offset just before the line's first column
    for m in TOKEN_RE.finditer(text):
        group = m.lastindex
        if group < nl:
            append((kinds[group], m[group], line, m.start(group) - before))
        elif group == nl:
            line += 1
            before = m.start(group)
        elif group != end:  # a comment, a `#` or a bad character
            start, stop = m.span(group)
            if group != _COMMENT:
                # a `#` that follows a token on its line is bad, and takes
                # the rest of the line with it, which is dead or an error
                first = group == _HASH and (not tokens or tokens[-1][LINE] != line)
                word = m[group] if first else m[group][0]
                marks.append(len(tokens))
                kind = "dir" if first else "bad"
                append((kind, word, line, start - before))
            line += text.count("\n", start, stop)
            before = max(before, text.rfind("\n", start, stop))
    return tokens, marks


def bad_token(tok: Token) -> CLexError:
    _, text, line, col = tok
    return CLexError(f"unexpected character {text!r}", line, col)


def lex(text: str) -> list[Token]:
    """The tokens of `text`; CLexError at its first bad character outside
    a directive line."""
    tokens, marks = scan(text)
    for i in marks:
        if tokens[i][KIND] == "bad":
            raise bad_token(tokens[i])
    return tokens
