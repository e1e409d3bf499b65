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

The classes are slotted dataclasses without generated `__eq__` or
`__repr__`: nothing compares nodes, and one `__repr__` on the base serves
debugging and tests for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


class _Node:
    __slots__ = ()

    def __repr__(self):
        items = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return f"{type(self).__name__}({items})"


_node = dataclass(slots=True, repr=False, eq=False)


@_node
class _At(_Node):
    line: int
    col: int


# ---------------------------------------------------------------------------
# Types


@_node
class CType(_Node):
    base: str  # canonical spelling: "value", "int", "struct foo", ...
    pointers: int = 0
    array: bool = False

    @property
    def is_value(self) -> bool:
        return self.base == "value" and self.pointers == 0 and not self.array

    def spell(self) -> str:
        return self.base + " " + "*" * self.pointers if self.pointers else self.base


# ---------------------------------------------------------------------------
# Expressions


@_node
class Num(_At):
    text: str
    value: int | float | None = None


@_node
class StrLit(_At):
    text: str


@_node
class CharLit(_At):
    text: str


@_node
class Name(_At):
    ident: str


@_node
class Call(_At):
    func: object  # usually Name
    args: list = field(default_factory=list)

    @property
    def callee(self) -> str | None:
        return self.func.ident if isinstance(self.func, Name) else None


@_node
class Unary(_At):
    op: str
    operand: object = None
    prefix: bool = True


@_node
class Binary(_At):
    op: str
    left: object = None
    right: object = None


@_node
class Ternary(_At):
    cond: object = None
    then: object = None
    els: object = None


@_node
class Assign(_At):
    target: object = None
    value: object = None
    op: str = "="


@_node
class Cast(_At):
    ctype: CType = None
    operand: object = None


@_node
class Member(_At):
    obj: object = None
    fieldname: str = ""
    arrow: bool = False


@_node
class Index(_At):
    obj: object = None
    index: object = None


@_node
class SizeofType(_At):
    ctype: CType = None


@_node
class CompoundLit(_At):
    ctype: CType = None
    inits: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements


@_node
class VarDecl(_At):
    """An initialized declarator; one without an initializer executes
    nothing and is only a local of its function."""

    name: str
    ctype: CType
    init: object


@_node
class ExprStmt(_At):
    expr: object = None


@_node
class If(_At):
    cond: object = None
    then: list = field(default_factory=list)
    els: list | None = None


@_node
class While(_At):
    cond: object = None
    body: list = field(default_factory=list)


@_node
class DoWhile(_At):
    body: list = field(default_factory=list)
    cond: object = None


@_node
class For(_At):
    """Its init statements come just before it in the statement list."""

    cond: object = None
    step: ExprStmt | Return | None = None
    body: list = field(default_factory=list)


@_node
class SwitchCase(_At):
    labels: list = field(default_factory=list)  # exprs; None = default
    body: list = field(default_factory=list)


@_node
class Switch(_At):
    subject: object = None
    cases: list[SwitchCase] = field(default_factory=list)


@_node
class Return(_At):
    """A `return`, or a statement-level `CAMLreturn*(...)` call or bare
    `CAMLreturn0`, whose `expr` is then the call or the name."""

    expr: object = None


@_node
class Break(_At):
    pass


@_node
class Continue(_At):
    pass


@_node
class Opaque(_At):
    """A statement the parser cannot model (inline asm, goto target, ...).

    Analyses treat it as scrambling every derived-pointer fact while leaving
    the lock state alone.
    """


# ---------------------------------------------------------------------------
# Top level


@_node
class StubFunction(_At):
    name: str
    params: list[tuple[str, CType]]
    return_type: CType
    is_camlprim: bool
    body: list = field(default_factory=list)
    locals: list[tuple[str, CType]] = field(default_factory=list)
    file: str = ""


@_node
class StubUnit(_Node):
    file: str
    functions: list[StubFunction] = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    # the name of every CAMLprim the file defines, whether its body parses
    # or not, and in every part of a file cut at top-level items
    camlprims: set[str] = field(default_factory=set)

