"""Extraction of `external` declarations from OCaml source.

This is deliberately not an OCaml parser.  It scans for `external` items,
top-level or inside modules, skipping comments and string literals, and
understands just enough of the type syntax to count top-level arrows and
classify arguments.  `.ml` and `.mli` files look the same from here;
callers decide what to do about duplicates between a pair.

Each step is done once, in one place:

- one scan: `_tokenize` matches one pattern from the current position, and
  a comment is skipped by one search over its openers, closers, strings
  and char literals;
- one bracket tracker: `_parse_external` collects the type up to its
  depth-0 `=` and splits it at each depth-0 `->` in the same loop, so the
  arity is the number of segments less one.  `unit -> handle` has arity 1,
  and so does `(int -> int) -> int`;
- one attribute reader: `_island` reads one `[@...]` or `[@@...]` into its
  attribute words.  The type walk calls it for the segment it is in, so a
  segment holds its bare tokens and its own attribute words, and the
  trailing `[@@...]` islands of a declaration go through it too;
- one module stack: `module [rec] Name` opens a header, and each `struct`
  or `sig` read while it is open pushes `Name`, until a `struct` closes
  it.  `begin`, `object` and any other `struct` or `sig` push no name, and
  `end` pops, so an external is named by the modules around it, whether
  the module has a signature (`module M : sig ... end = struct`), is
  recursive or a functor, or is itself a signature (`module N : sig`).
  A binding with no `struct` of its own (`module A = B`) ends at the next
  item keyword read at the header's own depth, which closes the header.

A declaration that cannot be made sense of yields one parse error and
scanning resumes at the next item, so a bad declaration never hides its
neighbours.
"""

from __future__ import annotations

import bisect
import re

from . import Slotted

# Argument/return kinds.
BOXED = "boxed_value"
UNBOXED_FLOAT = "unboxed_float"
UNBOXED_INT32 = "unboxed_int32"
UNBOXED_INT64 = "unboxed_int64"
UNBOXED_NATIVEINT = "unboxed_nativeint"
UNTAGGED_INT = "untagged_int"

# Base type spelling -> kind it unboxes/untags to, when the attribute applies.
_UNBOXABLE = {
    "float": UNBOXED_FLOAT,
    "int32": UNBOXED_INT32,
    "int64": UNBOXED_INT64,
    "nativeint": UNBOXED_NATIVEINT,
}

_ATTR_WORDS = frozenset({"unboxed", "untagged", "noalloc"})

# Keywords that start a new top-level item; used to resync after a malformed
# declaration so the rest of the file still gets scanned.
_RESYNC = frozenset(
    {"external", "let", "type", "module", "open", "include", "val", "exception"}
)

# Keywords that start the item after a module binding.  `type` is not one:
# `module T : S with type t = int = struct` is still the binding.
_BINDING_ENDS = frozenset({"external", "let", "open", "include", "val", "exception"})

# An escape sequence and a char literal, as the OCaml manual's lexical
# conventions spell them: a char literal is one character other than a
# backslash or a quote, or one escape sequence.
_ESCAPE = r"""\\(?:[\\'"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-3][0-7]{2})"""
_CHAR = r"""'(?:[^\\']|""" + _ESCAPE + r""")'"""
# One token from the current position: blanks, a comment opener, a string
# (a backslash escapes any next character; one left open runs to the end of
# the text), a char literal, a word, `->` or any other single character.
# Blanks are the OCaml ones, not `\s`.  A char literal has nothing
# interesting inside and is dropped; a `'` that starts none is punctuation.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]+
    |(?P<comment>\(\*)
    |(?P<string>"(?:[^"\\]|\\[\s\S]?)*"?)
    |""" + _CHAR + r"""
    |(?P<word>[A-Za-z_][A-Za-z0-9_']*)
    |(?P<punct>->|[\s\S])""",
    re.VERBOSE,
)
# inside a comment, what changes its depth; a string or a char literal is
# matched whole, so a `*)` or a `"` inside it neither closes the comment nor
# opens a string, as in OCaml's own lexer
_COMMENT_RE = re.compile(r"""(\(\*)|(\*\))|"(?:[^"\\]|\\[\s\S]?)*"?|""" + _CHAR)
_NEWLINE_RE = re.compile(r"\n")
# in a string, an escape sequence, a Unicode one, or a backslash-newline
# and the blanks that follow it
_STRING_ESCAPE_RE = re.compile(_ESCAPE + r"|\\u\{[0-9a-fA-F]+\}|\\\r?\n[ \t]*")
_ESCAPED = {"n": "\n", "t": "\t", "b": "\b", "r": "\r"}

# a C symbol name, which the header declares and the harness calls
_C_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# brackets of a type, each opener with its closer
_OPEN = {"(": ")", "[": "]", "<": ">"}
_CLOSE = {")", "]", ">"}


class ExternalDecl(Slotted):
    ocaml_name: str
    byte_name: str
    native_name: str | None
    arity: int
    arg_kinds: tuple[str, ...]
    return_kind: str
    source_loc: tuple[str, int, int]  # file, 1-based line, 1-based column
    __slots__ = tuple(__annotations__)

    def __init__(
        self, ocaml_name, byte_name, native_name, arity, arg_kinds, return_kind,
        source_loc,
    ):
        self.ocaml_name, self.byte_name = ocaml_name, byte_name
        self.native_name, self.arity, self.arg_kinds = native_name, arity, arg_kinds
        self.return_kind, self.source_loc = return_kind, source_loc


class MlParseError(Slotted):
    file: str
    line: int
    column: int
    message: str
    __slots__ = tuple(__annotations__)

    def __init__(self, file, line, column, message):
        self.file, self.line = file, line
        self.column, self.message = column, message


# ---------------------------------------------------------------------------
# Tokenizer


def _tokenize(text: str):
    """The (kind, text, pos) tokens; kind is word | string | punct.

    Comments vanish entirely (they nest, and a string literal inside a
    comment keeps the comment open, as in real OCaml).  `->` is one token.
    """
    tokens = []
    match = _TOKEN_RE.match
    i = 0
    n = len(text)
    while i < n:
        m = match(text, i)
        kind = m.lastgroup
        if kind == "comment":
            i = _skip_comment(text, i)
            continue
        if kind is not None:
            tokens.append((kind, m.group(), i))
        i = m.end()
    return tokens


def _skip_comment(text: str, i: int) -> int:
    """The end of the comment that opens at `i`."""
    depth = 0
    for m in _COMMENT_RE.finditer(text, i):
        if m.lastindex == 1:
            depth += 1
        elif m.lastindex == 2:
            depth -= 1
            if depth == 0:
                return m.end()
    return len(text)  # unterminated comment swallows the rest of the file


def _unescape(match) -> str:
    seq = match[0][1:]
    kind = seq[0]
    if kind in "\r\n":
        return ""  # a backslash-newline and the blanks after it
    if kind == "x" or kind == "o":
        return chr(int(seq[1:], 16 if kind == "x" else 8))
    if kind == "u":
        code, limit = int(seq[2:-1], 16), 0x10FFFF
    elif kind.isdigit():
        code, limit = int(seq), 255
    else:
        return _ESCAPED.get(kind, kind)
    return chr(code) if code <= limit else match[0]  # no char: kept as written


def _string_value(tok_text: str) -> str:
    """The text of a string literal, its escapes decoded; a backslash that
    starts no escape is kept as written."""
    return _STRING_ESCAPE_RE.sub(_unescape, tok_text[1:-1])


# ---------------------------------------------------------------------------
# Segment kinds


def _island(tokens, i: int, attrs: set[str]) -> int:
    """Read the attribute island `[@...]` or `[@@...]` that opens at
    tokens[i]: its attribute words go into `attrs`.  Returns the index just
    past its `]`, or the end of the tokens if it is left open."""
    n = len(tokens)
    depth = 0
    while i < n:
        txt = tokens[i][1]
        i += 1
        if txt == "[":
            depth += 1
        elif txt == "]":
            depth -= 1
            if depth == 0:
                break
        elif txt in _ATTR_WORDS:
            attrs.add(txt)
    return i


def _kind_of_segment(bare, attrs: set[str]) -> str:
    """The kind of one argument or the result, from its bare tokens and the
    attribute words that apply to it.

    The bare type word is what is left of the bare tokens after peeling
    matching outer `(`...`)` pairs, if that is one word.
    """
    lo, hi = 0, len(bare) - 1
    while lo < hi and bare[lo][1] == "(" and bare[hi][1] == ")":
        lo += 1
        hi -= 1
    base = bare[lo][1] if lo == hi and bare[lo][0] == "word" else None
    if base in _UNBOXABLE and "unboxed" in attrs:
        return _UNBOXABLE[base]
    if base == "int" and "untagged" in attrs:
        return UNTAGGED_INT
    return BOXED


# ---------------------------------------------------------------------------
# Declaration scanner


def parse_ml_externals(source_text: str, file_name: str):
    """Scan OCaml source for external declarations.

    Returns (decls, errors).  Declarations inside comments or string
    literals are never extracted; a malformed declaration contributes one
    MlParseError and scanning continues with the next item.  Module-nested
    externals get a dot-separated ocaml_name.
    """
    tokens = _tokenize(source_text)
    line_starts = [0]
    line_starts.extend(m.end() for m in _NEWLINE_RE.finditer(source_text))

    def loc(pos: int) -> tuple[int, int]:
        idx = bisect.bisect_right(line_starts, pos) - 1
        return idx + 1, pos - line_starts[idx] + 1

    decls: list[ExternalDecl] = []
    errors: list[MlParseError] = []

    def err(pos: int, message: str):
        line, col = loc(pos)
        errors.append(MlParseError(file_name, line, col, message))

    # the names of the open `struct`, `sig`, `begin` and `object` blocks,
    # None for one that names no module; `header` is the name of the
    # `module [rec] Name` header being read, until its `struct` or the
    # item after it, and `header_depth` the stack depth it was read at
    module_stack: list[str | None] = []
    header: str | None = None
    header_depth = 0

    i = 0
    n = len(tokens)
    while i < n:
        kind, txt, _ = tokens[i]
        i += 1
        if kind != "word":
            continue
        if txt in _BINDING_ENDS and len(module_stack) == header_depth:
            header = None
        if txt == "external":
            i = _parse_external(
                tokens, i - 1, file_name, module_stack, decls, err, loc
            )
        elif txt == "module":
            # a module name is capitalized: `module type` names nothing
            j = i + 1 if i < n and tokens[i][1] == "rec" else i
            header = None
            if j < n and tokens[j][0] == "word" and tokens[j][1][0].isupper():
                header = tokens[j][1]
                header_depth = len(module_stack)
        elif txt == "struct" or txt == "sig":
            module_stack.append(header)
            if txt == "struct":
                header = None
        elif txt == "begin" or txt == "object":
            module_stack.append(None)
        elif txt == "end" and module_stack:
            module_stack.pop()

    return decls, errors


def _parse_external(tokens, i, file_name, module_stack, decls, err, loc):
    """Parse one declaration starting at tokens[i] == 'external'.

    Returns the index to resume the outer scan from.
    """
    n = len(tokens)
    start_pos = tokens[i][2]
    i += 1

    # name: identifier or parenthesized operator
    if i < n and tokens[i][0] == "word":
        name = tokens[i][1]
        i += 1
    elif i < n and tokens[i][1] == "(":
        j = i + 1
        parts = []
        while j < n and tokens[j][1] != ")":
            parts.append(tokens[j][1])
            j += 1
        if j >= n:
            err(start_pos, "unterminated operator name after 'external'")
            return j
        name = " ".join(parts) if parts else "()"
        i = j + 1
    else:
        err(start_pos, "missing name after 'external'")
        return i

    if i >= n or tokens[i][1] != ":":
        err(start_pos, f"expected ':' after external name '{name}'")
        return i

    i += 1
    # the type: tokens up to a depth-0 '=', split into one segment per
    # argument and one for the result at each depth-0 '->'; a segment holds
    # its bare tokens and the words of its own attribute islands
    segments = [([], set())]
    stack = []
    while i < n:
        tok = tokens[i]
        kind, txt, pos = tok
        if kind == "punct":
            if not stack and txt == "=":
                break
            if not stack and txt == "->":
                segments.append(([], set()))
                i += 1
                continue
            if txt == "[" and i + 1 < n and tokens[i + 1][1] == "@":
                i = _island(tokens, i, segments[-1][1])
                continue
            if txt in _OPEN:
                stack.append(_OPEN[txt])
            elif txt in _CLOSE:
                if txt == ">":
                    # `>` only closes an object type; in `[> ...]` it is
                    # variance punctuation and closes nothing.
                    if stack and stack[-1] == ">":
                        stack.pop()
                elif not stack or stack[-1] != txt:
                    err(pos, f"unbalanced parentheses in type of '{name}'")
                    return i + 1
                else:
                    stack.pop()
        elif kind == "word" and not stack and txt in _RESYNC:
            err(start_pos, f"missing '=' in external declaration '{name}'")
            return i  # resume at this keyword
        segments[-1][0].append(tok)
        i += 1
    if i >= n:
        err(start_pos, f"missing '=' in external declaration '{name}'")
        return i
    i += 1  # consume '='

    # C symbol names: one or two string literals; later strings that spell
    # attribute words are the pre-4.03 attribute syntax.
    strings = []
    attrs = set()
    while i < n and tokens[i][0] == "string":
        val = _string_value(tokens[i][1])
        if strings and val in _ATTR_WORDS:
            attrs.add(val)
        elif len(strings) < 2:
            strings.append(val)
        i += 1
    if not strings:
        err(start_pos, f"missing C symbol name in external '{name}'")
        return i

    # trailing [@@...] attribute islands
    while i < n and tokens[i][1] == "[":
        i = _island(tokens, i, attrs)

    # a name that starts with `%` is a compiler builtin, with no C symbol
    for symbol in strings:
        if not symbol.startswith("%") and not _C_IDENT_RE.fullmatch(symbol):
            message = f"C name {symbol!r} of external '{name}' is not a C identifier"
            err(start_pos, message)
            return i

    byte_name = strings[0]
    native_name = strings[1] if len(strings) > 1 else None

    arity = len(segments) - 1
    if arity == 0:
        err(start_pos, f"external '{name}' must have a function type")
        return i

    # `attrs` holds the declaration-level attributes ([@@...] islands and
    # old-style strings); those apply to every segment.  Per-argument
    # [@unboxed]/[@untagged] apply to their own segment only.  Unboxing
    # only changes the native entry point.
    if native_name is None:
        kinds = [BOXED] * len(segments)
    else:
        kinds = [_kind_of_segment(bare, own | attrs) for bare, own in segments]

    path = [m for m in module_stack if m]
    line, col = loc(start_pos)
    decls.append(
        ExternalDecl(
            ocaml_name=".".join(path + [name]),
            byte_name=byte_name,
            native_name=native_name,
            arity=arity,
            arg_kinds=tuple(kinds[:-1]),
            return_kind=kinds[-1],
            source_loc=(file_name, line, col),
        )
    )
    return i
