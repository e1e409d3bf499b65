"""One-level textual preprocessing for stub sources.

Supports what stub files actually contain: object-like and one-argument
function-like `#define`s (expanded a single level, never rescanned),
`#include` lines (removed, never expanded) and conditional blocks.  `#if 0`
is elided silently; any other conditional takes the branch you would get
with all unknown identifiers undefined, and leaves a note saying so.

The line grid is kept intact: every directive line, every consumed
continuation line and every line of a dropped branch is replaced by a blank
line, so downstream positions match the file on disk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..diagnostics import NOTE, Diagnostic


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
    line: int = 0


@dataclass
class PreprocessResult:
    text: str
    notes: list[Diagnostic] = field(default_factory=list)


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DIRECTIVE_RE = re.compile(r"^\s*#\s*(\w+)\s*(.*?)\s*$")
_DEFINE_RE = re.compile(r"^([A-Za-z_]\w*)(\()?")


def preprocess_local(source_text: str, file_name: str = "<memory>") -> PreprocessResult:
    lines = _splice_continuations(source_text)
    text = _strip_comments("\n".join(lines))
    lines = text.split("\n")

    result = PreprocessResult(text="")
    macros: dict[str, MacroDef] = {}
    # conditional stack entries: [active, any_branch_taken, saw_else]
    stack: list[list] = []
    out: list[str] = []

    for lineno, line in enumerate(lines, start=1):
        m = _DIRECTIVE_RE.match(line)
        active = all(s[0] for s in stack)
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
    parent_active = all(s[0] for s in stack)
    if name == "define" and active:
        _define(rest, lineno, macros, result, file_name)
    elif name == "undef" and active:
        ident = rest.strip()
        macros.pop(ident, None)
    elif name in ("if", "ifdef", "ifndef"):
        if not parent_active:
            stack.append([False, True, False])  # whole region dead
            return
        value, used_unknown = _guard(name, rest, macros)
        if used_unknown:
            result.notes.append(
                Diagnostic(
                    "NOTE",
                    NOTE,
                    file_name,
                    lineno,
                    1,
                    f"conditional '#{name} {rest}' depends on macros not"
                    " defined in this file; analyzing the branch taken when"
                    " they are undefined",
                )
            )
        stack.append([bool(value), bool(value), False])
    elif name == "elif":
        if not stack:
            raise PreprocessError("#elif without #if", lineno)
        state = stack[-1]
        if state[2]:
            raise PreprocessError("#elif after #else", lineno)
        if state[1] or not all(s[0] for s in stack[:-1]):
            state[0] = False
            return
        value, used_unknown = _guard("if", rest, macros)
        if used_unknown:
            result.notes.append(
                Diagnostic(
                    "NOTE",
                    NOTE,
                    file_name,
                    lineno,
                    1,
                    f"conditional '#elif {rest}' depends on macros not"
                    " defined in this file; analyzing the branch taken when"
                    " they are undefined",
                )
            )
        state[0] = bool(value)
        state[1] = state[1] or bool(value)
    elif name == "else":
        if not stack:
            raise PreprocessError("#else without #if", lineno)
        state = stack[-1]
        if state[2]:
            raise PreprocessError("duplicate #else", lineno)
        state[2] = True
        state[0] = (not state[1]) and all(s[0] for s in stack[:-1])
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
                name, body, param=None, func_like=True, expandable=False, line=lineno
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
        macro = MacroDef(name, body, param=param, func_like=True, line=lineno)
    else:
        body = rest[m.end(1) :].strip()
        macro = MacroDef(name, body, line=lineno)
    if re.search(rf"\b{re.escape(name)}\b", macro.body):
        raise PreprocessError(f"recursive macro '{name}'", lineno)
    macros[name] = macro


# ---------------------------------------------------------------------------
# Guard evaluation


def _guard(kind, rest, macros):
    """Evaluate a conditional guard.

    Returns (value, used_unknown).  Identifiers with no local definition
    count as undefined (0), which is what used_unknown reports.
    """
    if kind == "ifdef":
        ident = rest.strip()
        known = ident in macros
        return (1 if known else 0), (not known)
    if kind == "ifndef":
        ident = rest.strip()
        known = ident in macros
        return (0 if known else 1), (not known)

    expr = rest
    used_unknown = False

    def _defined(mm):
        nonlocal used_unknown
        ident = mm.group(1) or mm.group(2)
        if ident not in macros:
            used_unknown = True
        return "1" if ident in macros else "0"

    expr = re.sub(
        r"defined\s*(?:\(\s*([A-Za-z_]\w*)\s*\)|([A-Za-z_]\w*))", _defined, expr
    )

    def _subst_ident(mm):
        nonlocal used_unknown
        ident = mm.group()
        macro = macros.get(ident)
        if macro is not None and not macro.func_like:
            return macro.body if macro.body else "1"
        used_unknown = True
        return "0"

    expr = _IDENT_RE.sub(_subst_ident, expr)
    try:
        value = _eval_int_expr(expr)
    except (ValueError, ZeroDivisionError, SyntaxError):
        return 0, True
    return value, used_unknown


def _eval_int_expr(expr: str) -> int:
    """Tiny constant-expression evaluator for guards (ints and the usual
    operators; no assignment, no identifiers by the time we get here)."""
    tokens = re.findall(
        r"0[xX][0-9a-fA-F]+[uUlL]*|\d+[uUlL]*|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%()!~<>&^|]",
        expr,
    )
    if "".join(tokens).replace(" ", "") != expr.replace(" ", ""):
        raise ValueError("unsupported guard syntax")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def primary():
        tok = peek()
        if tok == "(":
            take()
            v = binary(0)
            if peek() != ")":
                raise ValueError("unbalanced parens in guard")
            take()
            return v
        if tok in ("!", "~", "-", "+"):
            take()
            v = primary()
            return {"!": lambda x: int(not x), "~": lambda x: ~x,
                    "-": lambda x: -x, "+": lambda x: x}[tok](v)
        if tok is None:
            raise ValueError("truncated guard")
        take()
        return int(tok.rstrip("uUlL"), 0)

    levels = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    ops = {
        "||": lambda a, b: int(bool(a) or bool(b)),
        "&&": lambda a, b: int(bool(a) and bool(b)),
        "|": lambda a, b: a | b,
        "^": lambda a, b: a ^ b,
        "&": lambda a, b: a & b,
        "==": lambda a, b: int(a == b),
        "!=": lambda a, b: int(a != b),
        "<": lambda a, b: int(a < b),
        ">": lambda a, b: int(a > b),
        "<=": lambda a, b: int(a <= b),
        ">=": lambda a, b: int(a >= b),
        "<<": lambda a, b: a << b,
        ">>": lambda a, b: a >> b,
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a // b,
        "%": lambda a, b: a % b,
    }

    def binary(level):
        if level >= len(levels):
            return primary()
        left = binary(level + 1)
        while peek() in levels[level]:
            op = take()
            right = binary(level + 1)
            left = ops[op](left, right)
        return left

    value = binary(0)
    if pos != len(tokens):
        raise ValueError("trailing tokens in guard")
    return value


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
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "/" and text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and text.startswith("/*", i):
            i += 2
            while i < n and not text.startswith("*/", i):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2 if i < n else 0
            out.append(" ")
            continue
        if ch in "\"'":
            j = _skip_literal(text, i)
            out.append(text[i:j])
            i = j
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _skip_literal(text: str, i: int) -> int:
    quote = text[i]
    i += 1
    n = len(text)
    while i < n:
        if text[i] == "\\":
            i += 2
        elif text[i] == quote or text[i] == "\n":
            return i + 1 if text[i] == quote else i
        else:
            i += 1
    return n


def _expand_line(line: str, macros: dict[str, MacroDef]) -> str:
    """Expand macro uses in one line, one level, never rescanning output."""
    if not macros:
        return line
    out = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch in "\"'":
            j = _skip_literal(line, i)
            out.append(line[i:j])
            i = j
            continue
        m = _IDENT_RE.match(line, i)
        if not m:
            out.append(ch)
            i += 1
            continue
        name = m.group()
        macro = macros.get(name)
        if macro is None or not macro.expandable:
            out.append(name)
            i = m.end()
            continue
        if not macro.func_like:
            out.append(macro.body)
            i = m.end()
            continue
        j = m.end()
        while j < n and line[j] in " \t":
            j += 1
        if j >= n or line[j] != "(":
            out.append(name)  # function-like name without arguments
            i = m.end()
            continue
        depth = 0
        k = j
        while k < n:
            if line[k] in "\"'":
                k = _skip_literal(line, k)
                continue
            if line[k] == "(":
                depth += 1
            elif line[k] == ")":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        if k >= n:
            out.append(name)  # argument list is not closed on this line
            i = m.end()
            continue
        arg = line[j + 1 : k].strip()
        out.append(_subst_param(macro.body, macro.param, arg))
        i = k + 1
    return "".join(out)


def _subst_param(body: str, param: str | None, arg: str) -> str:
    if param is None:
        return body
    out = []
    i = 0
    n = len(body)
    while i < n:
        if body[i] in "\"'":
            j = _skip_literal(body, i)
            out.append(body[i:j])
            i = j
            continue
        m = _IDENT_RE.match(body, i)
        if m:
            out.append(arg if m.group() == param else m.group())
            i = m.end()
            continue
        out.append(body[i])
        i += 1
    return "".join(out)
