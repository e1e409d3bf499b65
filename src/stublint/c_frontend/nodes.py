"""AST shapes for the C stub subset.

Every node but a type and the unit derives from `_At` and carries the
(line, col) of its introducing token as its first two fields, so the
parser builds each node with one positional call.  Statement bodies are
plain Python lists; there is no separate Block node.  A list holds only
the statements that execute, in order: a declaration gives a VarDecl for
each declarator with an initializer and nothing else, a `for` gives its
init statements just before the For, and a statement-level
`CAMLreturn*(...)` call or a bare `CAMLreturn0` is a Return, like
`return`.  A statement holds its expressions as the trees the parser
built, and the CFG hands each statement to the analyses, whose one
statement step walks its expression in C's evaluation order
(`analysis.Walk`).

The classes are plain `Slotted` records with a written-out `__init__`, so
that importing them builds no methods at run time.  Their fields are bare
annotations, which give each class its `__slots__` and which the operands
test reads.  Nothing compares nodes, so they have no `__eq__`; the one
`Slotted.__repr__` serves debugging and tests for all of them.
"""

from __future__ import annotations

from .. import Slotted


class _At(Slotted):
    line: int
    col: int
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col):
        self.line, self.col = line, col


# ---------------------------------------------------------------------------
# Types


class CType(Slotted):
    base: str  # canonical spelling: "value", "int", "struct foo", ...
    pointers: int
    array: bool
    __slots__ = tuple(__annotations__)

    def __init__(self, base, pointers=0, array=False):
        self.base, self.pointers, self.array = base, pointers, array

    @property
    def is_value(self) -> bool:
        return self.base == "value" and self.pointers == 0 and not self.array

    def spell(self) -> str:
        return self.base + " " + "*" * self.pointers if self.pointers else self.base


# ---------------------------------------------------------------------------
# Expressions


class Num(_At):
    text: str
    value: int | float | None
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, text, value=None):
        self.line, self.col = line, col
        self.text, self.value = text, value


class StrLit(_At):
    text: str
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, text):
        self.line, self.col, self.text = line, col, text


class CharLit(_At):
    text: str
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, text):
        self.line, self.col, self.text = line, col, text


class Name(_At):
    ident: str
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, ident):
        self.line, self.col, self.ident = line, col, ident


class Call(_At):
    func: object  # usually Name
    args: list
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, func, args=None):
        self.line, self.col, self.func = line, col, func
        self.args = [] if args is None else args

    @property
    def callee(self) -> str | None:
        return self.func.ident if isinstance(self.func, Name) else None


class Unary(_At):
    op: str
    operand: object
    prefix: bool
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, op, operand=None, prefix=True):
        self.line, self.col = line, col
        self.op, self.operand, self.prefix = op, operand, prefix


class Binary(_At):
    op: str
    left: object
    right: object
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, op, left=None, right=None):
        self.line, self.col = line, col
        self.op, self.left, self.right = op, left, right


class Ternary(_At):
    cond: object
    then: object
    els: object
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, cond=None, then=None, els=None):
        self.line, self.col = line, col
        self.cond, self.then, self.els = cond, then, els


class Assign(_At):
    target: object
    value: object
    op: str
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, target=None, value=None, op="="):
        self.line, self.col = line, col
        self.target, self.value, self.op = target, value, op


class Cast(_At):
    ctype: CType
    operand: object
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, ctype=None, operand=None):
        self.line, self.col = line, col
        self.ctype, self.operand = ctype, operand


class Member(_At):
    obj: object
    fieldname: str
    arrow: bool
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, obj=None, fieldname="", arrow=False):
        self.line, self.col = line, col
        self.obj, self.fieldname, self.arrow = obj, fieldname, arrow


class Index(_At):
    obj: object
    index: object
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, obj=None, index=None):
        self.line, self.col = line, col
        self.obj, self.index = obj, index


class SizeofType(_At):
    ctype: CType
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, ctype=None):
        self.line, self.col, self.ctype = line, col, ctype


class CompoundLit(_At):
    ctype: CType
    inits: list
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, ctype=None, inits=None):
        self.line, self.col, self.ctype = line, col, ctype
        self.inits = [] if inits is None else inits


# ---------------------------------------------------------------------------
# Statements


class VarDecl(_At):
    """An initialized declarator; one without an initializer executes
    nothing and is only a local of its function."""

    name: str
    ctype: CType
    init: object
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, name, ctype, init):
        self.line, self.col = line, col
        self.name, self.ctype, self.init = name, ctype, init


class ExprStmt(_At):
    expr: object
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, expr=None):
        self.line, self.col, self.expr = line, col, expr


class If(_At):
    cond: object
    then: list
    els: list | None
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, cond=None, then=None, els=None):
        self.line, self.col, self.cond = line, col, cond
        self.then, self.els = [] if then is None else then, els


class While(_At):
    cond: object
    body: list
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, cond=None, body=None):
        self.line, self.col, self.cond = line, col, cond
        self.body = [] if body is None else body


class DoWhile(_At):
    body: list
    cond: object
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, body=None, cond=None):
        self.line, self.col, self.cond = line, col, cond
        self.body = [] if body is None else body


class For(_At):
    """Its init statements come just before it in the statement list."""

    cond: object
    step: ExprStmt | Return | None
    body: list
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, cond=None, step=None, body=None):
        self.line, self.col = line, col
        self.cond, self.step = cond, step
        self.body = [] if body is None else body


class SwitchCase(_At):
    labels: list  # exprs; None = default
    body: list
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, labels=None, body=None):
        self.line, self.col = line, col
        self.labels = [] if labels is None else labels
        self.body = [] if body is None else body


class Switch(_At):
    subject: object
    cases: list[SwitchCase]
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, subject=None, cases=None):
        self.line, self.col, self.subject = line, col, subject
        self.cases = [] if cases is None else cases


class Return(_At):
    """A `return`, or a statement-level `CAMLreturn*(...)` call or bare
    `CAMLreturn0`, whose `expr` is then the call or the name."""

    expr: object
    __slots__ = tuple(__annotations__)

    def __init__(self, line, col, expr=None):
        self.line, self.col, self.expr = line, col, expr


class Break(_At):
    __slots__ = ()


class Continue(_At):
    __slots__ = ()


class Opaque(_At):
    """A statement the parser cannot model (inline asm, goto target, ...).

    Analyses treat it as scrambling every derived-pointer fact while leaving
    the lock state alone.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# Top level


class StubFunction(_At):
    name: str
    params: list[tuple[str, CType]]
    return_type: CType
    is_camlprim: bool
    body: list
    locals: list[tuple[str, CType]]
    file: str
    __slots__ = tuple(__annotations__)

    def __init__(
        self, line, col, name, params, return_type, is_camlprim,
        body=None, locals=None, file="",
    ):
        self.line, self.col, self.name = line, col, name
        self.params, self.return_type = params, return_type
        self.is_camlprim = is_camlprim
        self.body = [] if body is None else body
        self.locals = [] if locals is None else locals
        self.file = file


class StubUnit(Slotted):
    file: str
    functions: list[StubFunction]
    diagnostics: list
    # the name of every CAMLprim the file defines, whether its body parses
    # or not, and in every part of a file cut at top-level items
    camlprims: set[str]
    __slots__ = tuple(__annotations__)

    def __init__(self, file, functions=None, diagnostics=None, camlprims=None):
        self.file = file
        self.functions = [] if functions is None else functions
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.camlprims = set() if camlprims is None else camlprims
