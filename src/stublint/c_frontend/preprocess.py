"""One-level preprocessing of stub sources, over tokens.

This is phase 4 of C99 5.1.1.2, run over the tokens that `scan` makes in
phases 1 to 3.  It supports what stub files actually contain: object-like
and one-argument function-like `#define`s (expanded a single level, never
rescanned), `#include` lines (dropped, never expanded) and conditional
blocks.  A macro with more than one parameter is left alone, with a note,
so its uses are analyzed as ordinary calls.

An expanded token takes the line and column of the macro's name at the
use site, as Clang's expansion locations do; every other token keeps its
place on disk.  Only an identifier names a macro: a literal, with its
prefix, and a preprocessing number are tokens of their own, so `1UL`,
`0x1F` and `L"N"` hold no macro use.  A bad token is an error only where
it is kept.

An `#if`/`#elif` guard has its local macros substituted, is parsed by the C
parser's `parse_expression` and folded by `fold`, the one folder of C
integer constant expressions; `naked_const` folds the constants stored into
values with it too.  It folds int and char constants as C99 does: `/` and
`%` truncate toward zero, and `&&`, `||` and `?:` fold only the operands
they select.  A char constant is one ASCII character or one simple, octal
or hex escape, such as `'a'`, `L'a'`, `'\\n'`, `'\\0'` or `'\\x41'`.  Each
caller gives `fold` the leaf that values every other node: a guard's leaf
raises, so a guard is a constant expression or unsupported, and the
store's leaf reads names, casts and `Val_int`.  A guard that names a macro
not defined in this file takes the branch you would get with those macros
undefined (0) and leaves a note saying so.  A guard that names none but
that the fold does not model (a shift by a count outside 0..63, a division
by zero, nesting past the parser's cap, a non-integer operand) is false,
and its note says why; `#if 0` is elided silently.

The tokens of a file with no directive and no bad character go to the
parser as `scan` made them; otherwise each run of tokens between two
directives is copied as one slice, unless it uses a macro.  Tokens are the
lexer's plain (kind, text, line, col) tuples, and an expanded token is a
new one, at the use site.
"""

from __future__ import annotations

import operator
import re

from .. import Slotted
from ..diagnostics import NOTE, Diagnostic
from . import nodes
from .lexer import COL, KIND, LINE, TEXT, TOKEN_RE, CLexError, Token, bad_token, scan
from .parser import CParseError, parse_expression


class PreprocessError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MacroDef(Slotted):
    body: list[Token]
    param: str | None
    func_like: bool
    expandable: bool
    bad: Token | None  # a bad token of the body, an error where used
    __slots__ = tuple(__annotations__)

    def __init__(self, body, param=None, func_like=False, expandable=True, bad=None):
        self.body, self.param, self.func_like = body, param, func_like
        self.expandable, self.bad = expandable, bad


class PreprocessResult(Slotted):
    # the source as given; only perfbench's traced replay reads it, and it
    # goes with that replay (ROADMAP item 1)
    text: str
    tokens: list[Token]
    notes: list[Diagnostic]
    __slots__ = tuple(__annotations__)

    def __init__(self, text, tokens=None, notes=None):
        self.text = text
        self.tokens = [] if tokens is None else tokens
        self.notes = [] if notes is None else notes


_text = operator.itemgetter(TEXT)
_ONE = ("num", "1", 0, 0)
_ZERO = ("num", "0", 0, 0)


def preprocess_local(source_text: str, file_name: str = "<memory>") -> PreprocessResult:
    tokens, marks = scan(source_text)
    result = PreprocessResult(source_text, tokens)
    if not marks:
        return result

    def note(where, message):
        result.notes.append(
            Diagnostic("NOTE", NOTE, file_name, where[LINE], where[COL], message)
        )

    macros: dict[str, MacroDef] = {}
    # conditional stack entries: [active, any_branch_taken, saw_else, the
    # line of its #if]; a level is active only under active parents, so the
    # top says it all
    stack: list[list] = []
    out: list[Token] = []
    pos = 0  # tokens[:pos] are handled
    for i in marks:
        active = not stack or stack[-1][0]
        if active:
            _expand(tokens, pos, i, macros, out)
        pos = i + 1
        if tokens[i][KIND] == "dir":
            _directive(tokens[i], active, stack, macros, note)
        elif active:
            raise bad_token(tokens[i])
    if stack:  # at the innermost, where gcc reports its first error
        raise PreprocessError("unterminated conditional block", stack[-1][3])
    _expand(tokens, pos, len(tokens), macros, out)
    result.tokens = out
    return result


def _spell(toks: list[Token]) -> str:
    """The text of a directive's tokens, spaced as on disk; one blank
    stands for a line break."""
    text = ""
    for prev, tok in zip([None, *toks], toks):
        if prev is not None:
            gap = tok[COL] - prev[COL] - len(prev[TEXT])
            text += " " * (gap if tok[LINE] == prev[LINE] else 1)
        text += tok[TEXT]
    return text


# ---------------------------------------------------------------------------
# Directives


_DIRECTIVES = frozenset(
    {"define", "undef", "if", "ifdef", "ifndef", "elif", "else", "endif"}
)


def _directive(tok, active, stack, macros, note):
    _, text, line, _ = tok
    first = TOKEN_RE.match(text, 1)
    while first.lastgroup == "comment":
        first = TOKEN_RE.match(text, first.end())
    name = first["ident"]  # None for the null directive, a lone `#`
    if name not in _DIRECTIVES or not active and name in ("define", "undef"):
        return  # #include, #pragma, #error in a dead branch, ... just vanish
    rest = scan(text[first.end() :])[0]
    if name == "define":
        _define(rest, tok, macros, note)
    elif name == "undef":
        macros.pop(_spell(rest), None)
    elif name in ("if", "ifdef", "ifndef", "elif"):
        if name != "elif":
            # under a dead parent the whole region is dead: count its
            # branch as taken already, so no #elif or #else revives it
            stack.append([False, not active, False, line])
        elif not stack:
            raise PreprocessError("#elif without #if", line)
        elif stack[-1][2]:
            raise PreprocessError("#elif after #else", line)
        state = stack[-1]
        if state[1]:
            state[0] = False
            return
        value, why = _guard(name, rest, macros)
        if why is not None:
            note(tok, f"conditional '#{name} {_spell(rest)}' {why}")
        state[0] = state[1] = bool(value)
    elif not stack:
        raise PreprocessError(f"#{name} without #if", line)
    elif name == "else":
        state = stack[-1]
        if state[2]:
            raise PreprocessError("duplicate #else", line)
        state[:3] = [not state[1], True, True]
    else:
        stack.pop()


def _define(rest, where, macros, note):
    """Define the macro that `rest`, the tokens after `#define`, spell;
    its note or error is at `where`, the directive."""
    if not rest or rest[0][KIND] != "ident":
        raise PreprocessError("malformed #define", where[LINE])
    (_, name, line, col), body = rest[0], rest[1:]
    macro = MacroDef(body)
    if body and body[0][TEXT:] == ("(", line, col + len(name)):
        # function-like: '(' immediately after the name
        close = next((i for i, tok in enumerate(body) if tok[TEXT] == ")"), 0)
        if not close:
            raise PreprocessError(f"malformed #define {name}", where[LINE])
        params = [p.strip() for p in _spell(body[1:close]).split(",")]
        params = [p for p in params if p]
        macro = MacroDef(body[close + 1 :], params[0] if params else None, True)
        if len(params) > 1:
            macro.expandable = False
            macros[name] = macro
            note(
                where,
                f"macro '{name}' takes {len(params)} parameters; only one-parameter"
                " macros are expanded, uses are analyzed as ordinary calls",
            )
            return
    if any(kind == "ident" and text == name for kind, text, _, _ in macro.body):
        raise PreprocessError(f"recursive macro '{name}'", where[LINE])
    macro.bad = next((tok for tok in macro.body if tok[KIND] == "bad"), None)
    macros[name] = macro


# ---------------------------------------------------------------------------
# Expansion


def _expand(tokens, start, end, macros, out):
    """Append `tokens[start:end]` to `out`, each macro use replaced by the
    macro's body, one level, never rescanned."""
    if not macros or macros.keys().isdisjoint(map(_text, tokens[start:end])):
        out += tokens[start:end]
        return
    copied = i = start  # tokens[start:copied] are in out
    while i < end:
        at, use = i, tokens[i]
        i += 1
        macro = macros.get(use[TEXT])
        if macro is None or not macro.expandable:
            continue
        body = macro.body
        if macro.func_like:
            if i == end or tokens[i][TEXT] != "(":
                continue  # function-like name without arguments
            depth = 0
            for close in range(i, end):
                depth += {"(": 1, ")": -1}.get(tokens[close][TEXT], 0)
                if depth == 0:
                    break
            else:
                continue  # the argument list is not closed before `end`
            arg, param = tokens[i + 1 : close], ("ident", macro.param)
            body = [t for tok in body for t in (arg if tok[:2] == param else (tok,))]
            i = close + 1
        _, _, line, col = use
        if macro.bad is not None:
            raise bad_token(("bad", macro.bad[TEXT], line, col))
        out += tokens[copied:at]
        out += [(kind, text, line, col) for kind, text, _, _ in body]
        copied = i
    out += tokens[copied:end]


# ---------------------------------------------------------------------------
# Guard evaluation


_UNKNOWN_MACROS = (
    "depends on macros not defined in this file; analyzing the branch taken"
    " when they are undefined"
)


def _guard(kind, toks, macros):
    """Evaluate a conditional guard.

    Returns (value, why).  Identifiers with no local definition count as
    undefined (0).  why is None for a guard evaluated in full; otherwise it
    ends the NOTE: the guard depends on such identifiers, or, when it names
    none, why it is unsupported, in which case it is false.
    """
    if kind == "ifdef" or kind == "ifndef":
        known = _spell(toks) in macros
        return int(known == (kind == "ifdef")), (None if known else _UNKNOWN_MACROS)

    used_unknown = False
    expr = []
    i = 0
    while i < len(toks):
        tok = toks[i]
        kind, text, _, _ = tok
        i += 1
        macro = macros.get(text)
        if kind != "ident":
            expr.append(tok)
        elif text == "defined" and (found := _defined_operand(toks, i)):
            operand, i = found
            used_unknown |= operand not in macros
            expr.append(_ONE if operand in macros else _ZERO)
        elif macro is not None and not macro.func_like:
            expr += macro.body or [_ONE]
        else:
            used_unknown = True
            expr.append(_ZERO)
    try:
        bad = next((tok for tok in expr if tok[KIND] == "bad"), None)
        if bad is not None:
            raise bad_token(bad)
        value = fold(parse_expression(expr), _not_constant)
    except (CLexError, CParseError, ValueError, ZeroDivisionError) as exc:
        if used_unknown:
            return 0, _UNKNOWN_MACROS
        if isinstance(exc, ZeroDivisionError):
            reason = "division by zero"
        else:  # drop the position within the guard that the parser gives
            reason = str(exc).split(": ", 1)[-1]
        return 0, f"is unsupported ({reason}); analyzing it as false"
    return value, (_UNKNOWN_MACROS if used_unknown else None)


def _defined_operand(toks, i):
    """The name that `defined X` or `defined(X)` asks about, with `toks[i]`
    just after the `defined`, and the index past it; None if neither."""
    paren = [tok[TEXT] for tok in toks[i : i + 3 : 2]] == ["(", ")"]
    operand = toks[i + paren : i + paren + 1]
    if operand and operand[0][KIND] == "ident":
        return operand[0][TEXT], i + 1 + 2 * paren
    return None


_GUARD_OPS = {
    "|": operator.or_, "^": operator.xor, "&": operator.and_,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b), ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b), ">=": lambda a, b: int(a >= b),
    "<<": lambda a, b: a << _shift_count(b), ">>": lambda a, b: a >> _shift_count(b),
    "/": lambda a, b: _c_div(a, b), "%": lambda a, b: a - b * _c_div(a, b),
}
_GUARD_PREFIX_OPS = {
    "!": lambda x: int(not x), "~": operator.invert,
    "-": operator.neg, "+": operator.pos,
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
    r"""[LuU]?'(?:([^'\\])|\\([0-7]{1,3})|\\x([0-9a-fA-F]+)|\\(['"?\\abfnrtv]))'"""
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


def fold(expr, leaf, env=None) -> int | None:
    """The value of `expr` as a C99 (6.6) integer constant expression over
    int and char constants, or None when it is unknown.  Any other node is
    `leaf(node, env)`'s, an int or None.

    An unknown operand makes the result unknown unless the other operand
    decides it (`0 && x`, `1 || x`), and a `?:` whose condition is unknown
    takes its arms' value when they agree.  As in C, `&&`, `||` and `?:`
    fold only the operands they select, so `1 || 1 / 0` is 1.  What C
    leaves undefined, or no constant expression holds, raises ValueError
    or ZeroDivisionError."""
    if isinstance(expr, nodes.Num) and isinstance(expr.value, int):
        return expr.value
    if isinstance(expr, nodes.CharLit):
        return _char_value(expr.text)
    if isinstance(expr, nodes.Unary) and expr.prefix and expr.op in _GUARD_PREFIX_OPS:
        operand = fold(expr.operand, leaf, env)
        return None if operand is None else _GUARD_PREFIX_OPS[expr.op](operand)
    # a constant expression holds no comma operator (C99 6.6p3)
    if isinstance(expr, nodes.Binary) and expr.op != ",":
        op, left = expr.op, fold(expr.left, leaf, env)
        if op == "&&" or op == "||":
            decides = op == "||"  # the truth of an operand that decides alone
            if left is not None and bool(left) is decides:
                return int(decides)
            right = fold(expr.right, leaf, env)
            if right is None or left is None and bool(right) is not decides:
                return None
            return int(bool(right))
        right = fold(expr.right, leaf, env)
        if left is None or right is None:
            return None
        return _GUARD_OPS[op](left, right)
    if isinstance(expr, nodes.Ternary):
        cond = fold(expr.cond, leaf, env)
        if cond is not None:
            return fold(expr.then if cond else expr.els, leaf, env)
        then = fold(expr.then, leaf, env)
        return then if then == fold(expr.els, leaf, env) else None
    return leaf(expr, env)


def _not_constant(expr, env):
    """The leaf of a guard: a node the fold does not fold is an error."""
    raise ValueError("not an integer constant expression")
