"""One-level textual preprocessing for stub sources.

Supports what stub files actually contain: object-like and one-argument
function-like `#define`s (expanded a single level, never rescanned),
`#include` lines (removed, never expanded) and conditional blocks.

An `#if`/`#elif` guard has its local macros substituted, is parsed by the C
parser's `parse_expression` and folded over integer and char constants as
C99 does: `/` and `%` truncate toward zero, and `&&`, `||` and `?:` fold
only the operands they select.  A char constant is one ASCII character or
one simple, octal or hex escape, such as `'a'`, `L'a'`, `'\\n'`, `'\\0'` or
`'\\x41'`.  A guard that names a macro not defined in this file takes the
branch you would get with those macros undefined (0) and leaves a note
saying so.  A guard that names none but that the fold does not model (a
shift by a count outside 0..63, a division by zero, nesting past the
parser's cap, a non-integer operand) is false, and its note says why;
`#if 0` is elided silently.

String and char literals are recognised by one pattern, `_LITERAL`, which
comment stripping skips.  The words of a line are recognised by one more,
`_WORD_RE`: a literal, a preprocessing number or an identifier.  Macro
expansion, parameter substitution, the self-reference check of `#define`
and guard evaluation replace only identifiers, so a comment marker or a
macro name inside a literal, and the `UL` of `1UL` or the `x1F` of `0x1F`,
are left alone.

The line grid is kept intact: every directive line, every consumed
continuation line and every line of a dropped branch is replaced by a blank
line, and a block comment is blanked to spaces of its own width, newlines
kept.  Line numbers match the file on disk, and so do columns on a line
that has no macro use and no continuation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..diagnostics import NOTE, Diagnostic
from . import nodes
from .lexer import CLexError
from .parser import CParseError, parse_expression


class PreprocessError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class MacroDef:
    name: str
    body: str
    param: str | None = None
    func_like: bool = False
    expandable: bool = True


@dataclass
class PreprocessResult:
    text: str
    notes: list[Diagnostic] = field(default_factory=list)


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# A string or char literal.  A backslash escapes any next character, line
# ends included; a literal left open ends before the newline or at the end
# of the text.
_LITERAL = r""""(?:[^"\\\n]|\\[\s\S]?)*"?|'(?:[^'\\\n]|\\[\s\S]?)*'?"""
_COMMENT_RE = re.compile(rf"{_LITERAL}|//[^\n]*|/\*[\s\S]*?(?:\*/|\Z)")
_PAREN_RE = re.compile(rf"{_LITERAL}|[()]")
_ARGS_OPEN_RE = re.compile(r"[ \t]*\(")
# A word of a line: a literal with its optional encoding prefix (group 1 is
# the literal without it), a preprocessing number (C99 6.4.8, so `1UL` and
# `0x1F` are one word each) or an identifier (group 2).  Only an identifier
# can name a macro.
_WORD = (
    rf"(?:u8|[LuU])?({_LITERAL})"
    r"|\.?[0-9](?:[eEpP][+-]|[0-9A-Za-z_.])*"
    rf"|({_IDENT})"
)
_WORD_RE = re.compile(_WORD)
# a guard's words, and `defined X` or `defined(X)` as one (group 1 or 2
# names X; the word's groups follow as 3 and 4)
_GUARD_RE = re.compile(rf"defined\b\s*(?:\(\s*({_IDENT})\s*\)|({_IDENT}))|{_WORD}")
_DIRECTIVE_RE = re.compile(r"^\s*#\s*(\w+)\s*(.*?)\s*$")
_DEFINE_RE = re.compile(r"^([A-Za-z_]\w*)(\()?")


def preprocess_local(source_text: str, file_name: str = "<memory>") -> PreprocessResult:
    lines = _splice_continuations(source_text)
    text = _strip_comments("\n".join(lines))
    lines = text.split("\n")

    result = PreprocessResult(text="")
    macros: dict[str, MacroDef] = {}
    # conditional stack entries: [active, any_branch_taken, saw_else]; a
    # level is active only under active parents, so the top says it all
    stack: list[list] = []
    out: list[str] = []

    for lineno, line in enumerate(lines, start=1):
        m = _DIRECTIVE_RE.match(line)
        active = not stack or stack[-1][0]
        if m:
            _directive(
                m.group(1), m.group(2), lineno, active, stack, macros, result, file_name
            )
            out.append("")
            continue
        if not active:
            out.append("")
            continue
        out.append(_expand_line(line, macros))

    if stack:
        raise PreprocessError("unterminated conditional block", len(lines))
    result.text = "\n".join(out)
    return result


# ---------------------------------------------------------------------------
# Directives


def _directive(name, rest, lineno, active, stack, macros, result, file_name):
    if name == "define" and active:
        _define(rest, lineno, macros, result, file_name)
    elif name == "undef" and active:
        ident = rest.strip()
        macros.pop(ident, None)
    elif name in ("if", "ifdef", "ifndef", "elif"):
        if name != "elif":
            # under a dead parent the whole region is dead: count its
            # branch as taken already, so no #elif or #else revives it
            stack.append([False, not active, False])
        elif not stack:
            raise PreprocessError("#elif without #if", lineno)
        elif stack[-1][2]:
            raise PreprocessError("#elif after #else", lineno)
        state = stack[-1]
        if state[1]:
            state[0] = False
            return
        value, why = _guard(name, rest, macros)
        if why is not None:
            message = f"conditional '#{name} {rest}' {why}"
            result.notes.append(Diagnostic("NOTE", NOTE, file_name, lineno, 1, message))
        state[0] = state[1] = bool(value)
    elif name == "else":
        if not stack:
            raise PreprocessError("#else without #if", lineno)
        state = stack[-1]
        if state[2]:
            raise PreprocessError("duplicate #else", lineno)
        state[2] = True
        state[0] = not state[1]
        state[1] = True
    elif name == "endif":
        if not stack:
            raise PreprocessError("#endif without #if", lineno)
        stack.pop()
    # other directives (#pragma, #error in a dead branch, ...) just vanish


def _define(rest, lineno, macros, result, file_name):
    m = _DEFINE_RE.match(rest)
    if not m:
        raise PreprocessError("malformed #define", lineno)
    name = m.group(1)
    if m.group(2):  # function-like: '(' immediately after the name
        close = rest.find(")", m.end(1))
        if close < 0:
            raise PreprocessError(f"malformed #define {name}", lineno)
        params = [p.strip() for p in rest[m.end(1) + 1 : close].split(",")]
        params = [p for p in params if p]
        body = rest[close + 1 :].strip()
        if len(params) > 1:
            macros[name] = MacroDef(
                name, body, param=None, func_like=True, expandable=False
            )
            result.notes.append(
                Diagnostic(
                    "NOTE",
                    NOTE,
                    file_name,
                    lineno,
                    1,
                    f"macro '{name}' takes {len(params)} parameters; only"
                    " one-parameter macros are expanded, uses are analyzed"
                    " as ordinary calls",
                )
            )
            return
        param = params[0] if params else None
        macro = MacroDef(name, body, param=param, func_like=True)
    else:
        body = rest[m.end(1) :].strip()
        macro = MacroDef(name, body)
    if any(m.group(2) == name for m in _WORD_RE.finditer(macro.body)):
        raise PreprocessError(f"recursive macro '{name}'", lineno)
    macros[name] = macro


# ---------------------------------------------------------------------------
# Guard evaluation


_UNKNOWN_MACROS = (
    "depends on macros not defined in this file; analyzing the branch taken"
    " when they are undefined"
)


def _guard(kind, rest, macros):
    """Evaluate a conditional guard.

    Returns (value, why).  Identifiers with no local definition count as
    undefined (0).  why is None for a guard evaluated in full; otherwise it
    ends the NOTE: the guard depends on such identifiers, or, when it names
    none, why it is unsupported, in which case it is false.
    """
    if kind == "ifdef" or kind == "ifndef":
        known = rest.strip() in macros
        value = known if kind == "ifdef" else not known
        return int(value), (None if known else _UNKNOWN_MACROS)

    used_unknown = False

    def _subst(mm):
        nonlocal used_unknown
        defined, name = mm.group(1) or mm.group(2), mm.group(4)
        if defined is not None:
            if defined in macros:
                return "1"
        elif name is None:  # a number, or a literal without its prefix
            return mm.group(3) or mm.group()
        else:
            macro = macros.get(name)
            if macro is not None and not macro.func_like:
                return macro.body if macro.body else "1"
        used_unknown = True
        return "0"

    expr = _GUARD_RE.sub(_subst, rest)
    try:
        value = _fold(parse_expression(expr))
    except (CLexError, CParseError, ValueError, ZeroDivisionError) as exc:
        if used_unknown:
            return 0, _UNKNOWN_MACROS
        if isinstance(exc, ZeroDivisionError):
            reason = "division by zero"
        else:  # drop the position within the guard that the parser gives
            reason = str(exc).split(": ", 1)[-1]
        return 0, f"is unsupported ({reason}); analyzing it as false"
    return value, (_UNKNOWN_MACROS if used_unknown else None)


_GUARD_OPS = {
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "&": lambda a, b: a & b,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
    "<<": lambda a, b: a << _shift_count(b),
    ">>": lambda a, b: a >> _shift_count(b),
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: _c_div(a, b),
    "%": lambda a, b: a - b * _c_div(a, b),
}
_GUARD_PREFIX_OPS = {
    "!": lambda x: int(not x),
    "~": lambda x: ~x,
    "-": lambda x: -x,
    "+": lambda x: x,
}


def _shift_count(count: int) -> int:
    # C leaves a shift by a negative count or by the operand's width or
    # more undefined; refusing it also keeps 1 << 10**10 from allocating
    if not 0 <= count <= 63:
        raise ValueError(f"shift count {count} out of range 0..63")
    return count


def _c_div(a: int, b: int) -> int:
    """C99 division: the quotient truncated toward zero."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


# a char constant the fold reads: one character, an octal or hex escape,
# or a simple escape, whose value is in _SIMPLE_ESCAPES
_CHAR_CONSTANT_RE = re.compile(
    r"""'(?:([^'\\])|\\([0-7]{1,3})|\\x([0-9a-fA-F]+)|\\(['"?\\abfnrtv]))'"""
)
_SIMPLE_ESCAPES = {
    "'": 39, '"': 34, "?": 63, "\\": 92,
    "a": 7, "b": 8, "f": 12, "n": 10, "r": 13, "t": 9, "v": 11,
}


def _char_value(text: str) -> int:
    m = _CHAR_CONSTANT_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"char constant {text} is not one character or escape")
    plain, octal, hexa, simple = m.groups()
    if plain is not None:
        value = ord(plain)
    elif octal is not None:
        value = int(octal, 8)
    elif hexa is not None:
        value = int(hexa, 16)
    else:
        value = _SIMPLE_ESCAPES[simple]
    if value > 127:
        # whether char is signed, and how a source character past ASCII is
        # encoded, are the compiler's choice
        raise ValueError(f"char constant {text} is past ASCII")
    return value


def _fold(expr) -> int:
    """Value of a guard expression over int and char constants; ValueError
    for anything else.  As in C, `&&`, `||` and `?:` fold only the operands
    they select, so `1 || 1 / 0` is 1."""
    if isinstance(expr, nodes.Num) and isinstance(expr.value, int):
        return expr.value
    if isinstance(expr, nodes.CharLit):
        return _char_value(expr.text)
    if isinstance(expr, nodes.Unary) and expr.prefix and expr.op in _GUARD_PREFIX_OPS:
        return _GUARD_PREFIX_OPS[expr.op](_fold(expr.operand))
    if isinstance(expr, nodes.Binary):
        left = _fold(expr.left)
        if expr.op == "&&":
            return int(bool(left) and bool(_fold(expr.right)))
        if expr.op == "||":
            return int(bool(left) or bool(_fold(expr.right)))
        return _GUARD_OPS[expr.op](left, _fold(expr.right))
    if isinstance(expr, nodes.Ternary):
        return _fold(expr.then if _fold(expr.cond) else expr.els)
    raise ValueError("not an integer constant expression")


# ---------------------------------------------------------------------------
# Line splicing, comments, expansion


def _splice_continuations(text: str) -> list[str]:
    lines = text.split("\n")
    out: list[str] = []
    i = 0
    while i < len(lines):
        cur = lines[i]
        consumed = 0
        while cur.endswith("\\"):
            if i + consumed + 1 >= len(lines):
                raise PreprocessError(
                    "backslash-newline at end of file", i + consumed + 1
                )
            consumed += 1
            cur = cur[:-1] + lines[i + consumed]
        out.append(cur)
        out.extend([""] * consumed)
        i += consumed + 1
    return out


def _strip_comments(text: str) -> str:
    return _COMMENT_RE.sub(_blank_comment, text)


def _blank_comment(m: re.Match) -> str:
    text = m.group()
    if text[0] != "/":  # a literal: comment markers inside it are text
        return text
    if text[1] == "/":
        return ""
    # a block comment keeps its width, so later columns match the disk
    return "\n".join(" " * len(part) for part in text.split("\n"))


def _expand_line(line: str, macros: dict[str, MacroDef]) -> str:
    """Expand macro uses in one line, one level, never rescanning output."""
    if not macros:
        return line
    out = []
    copied = pos = 0  # line[:copied] is in out; scanning resumes at pos
    while m := _WORD_RE.search(line, pos):
        pos = m.end()
        macro = macros.get(m.group())  # a literal never names a macro
        if macro is None or not macro.expandable:
            continue
        text = macro.body
        if macro.func_like:
            args = _ARGS_OPEN_RE.match(line, pos)
            if not args:
                continue  # function-like name without arguments
            depth = 0
            for paren in _PAREN_RE.finditer(line, args.end() - 1):
                if paren.group() == "(":
                    depth += 1
                elif paren.group() == ")":
                    depth -= 1
                    if depth == 0:
                        break
            else:
                continue  # argument list is not closed on this line
            arg = line[args.end() : paren.start()].strip()
            text = _subst_param(macro.body, macro.param, arg)
            pos = paren.end()
        out += (line[copied : m.start()], text)
        copied = pos
    out.append(line[copied:])
    return "".join(out)


def _subst_param(body: str, param: str | None, arg: str) -> str:
    return _WORD_RE.sub(lambda m: arg if m.group() == param else m.group(), body)
