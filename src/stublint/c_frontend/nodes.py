"""AST shapes for the C stub subset, and the ops the parser attaches.

Expression nodes carry (line, col) of their introducing token.  Statement
bodies are plain Python lists; there is no separate Block node.  The
analyses never walk expression trees themselves: while it parses a
statement-level expression, the parser appends the flat ops its nodes
perform to that statement's `ops` (see "Ops" below), and each CFG node
hands those ops on.

The classes are slotted dataclasses without generated `__eq__` or
`__repr__`: nothing compares nodes, and one `__repr__` on the base serves
debugging and tests for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class _Node:
    __slots__ = ()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


_node = dataclass(slots=True, repr=False, eq=False)


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
class Num(_Node):
    text: str
    value: int | float | None = None
    line: int = 0
    col: int = 0


@_node
class StrLit(_Node):
    text: str
    line: int = 0
    col: int = 0


@_node
class CharLit(_Node):
    text: str
    line: int = 0
    col: int = 0


@_node
class Name(_Node):
    ident: str
    line: int = 0
    col: int = 0


@_node
class Call(_Node):
    func: object  # usually Name
    args: list = field(default_factory=list)
    line: int = 0
    col: int = 0

    @property
    def callee(self) -> str | None:
        return self.func.ident if isinstance(self.func, Name) else None


@_node
class Unary(_Node):
    op: str
    operand: object = None
    prefix: bool = True
    line: int = 0
    col: int = 0


@_node
class Binary(_Node):
    op: str
    left: object = None
    right: object = None
    line: int = 0
    col: int = 0


@_node
class Ternary(_Node):
    cond: object = None
    then: object = None
    els: object = None
    line: int = 0
    col: int = 0


@_node
class Assign(_Node):
    target: object = None
    value: object = None
    op: str = "="
    line: int = 0
    col: int = 0


@_node
class Cast(_Node):
    ctype: CType = None
    operand: object = None
    line: int = 0
    col: int = 0


@_node
class Member(_Node):
    obj: object = None
    fieldname: str = ""
    arrow: bool = False
    line: int = 0
    col: int = 0


@_node
class Index(_Node):
    obj: object = None
    index: object = None
    line: int = 0
    col: int = 0


@_node
class SizeofType(_Node):
    ctype: CType = None
    line: int = 0
    col: int = 0


@_node
class CompoundLit(_Node):
    ctype: CType = None
    inits: list = field(default_factory=list)
    line: int = 0
    col: int = 0


# ---------------------------------------------------------------------------
# Statements


@_node
class VarDecl(_Node):
    name: str
    ctype: CType
    init: object = None
    ops: tuple = ()  # the initializer's, then the store into `name`
    line: int = 0
    col: int = 0


@_node
class DeclStmt(_Node):
    decls: list[VarDecl] = field(default_factory=list)
    line: int = 0
    col: int = 0


@_node
class ExprStmt(_Node):
    expr: object = None
    ops: tuple = ()
    line: int = 0
    col: int = 0


@_node
class If(_Node):
    cond: object = None
    then: list = field(default_factory=list)
    els: list | None = None
    ops: tuple = ()  # the condition's
    line: int = 0
    col: int = 0


@_node
class While(_Node):
    cond: object = None
    body: list = field(default_factory=list)
    ops: tuple = ()  # the condition's
    line: int = 0
    col: int = 0


@_node
class DoWhile(_Node):
    body: list = field(default_factory=list)
    cond: object = None
    ops: tuple = ()  # the condition's
    line: int = 0
    col: int = 0


@_node
class For(_Node):
    init: object = None  # DeclStmt | ExprStmt | None
    cond: object = None
    step: ExprStmt | None = None
    body: list = field(default_factory=list)
    ops: tuple = ()  # the condition's
    line: int = 0
    col: int = 0


@_node
class SwitchCase(_Node):
    labels: list = field(default_factory=list)  # exprs; None = default
    body: list = field(default_factory=list)
    line: int = 0
    col: int = 0


@_node
class Switch(_Node):
    subject: object = None
    cases: list[SwitchCase] = field(default_factory=list)
    ops: tuple = ()  # the subject's
    line: int = 0
    col: int = 0


@_node
class Return(_Node):
    expr: object = None
    ops: tuple = ()
    line: int = 0
    col: int = 0


@_node
class Break(_Node):
    line: int = 0
    col: int = 0


@_node
class Continue(_Node):
    line: int = 0
    col: int = 0


@_node
class Opaque(_Node):
    """A statement the parser cannot model (inline asm, goto target, ...).

    Analyses treat it as scrambling every derived-pointer fact while leaving
    the lock state alone.
    """

    text: str = ""
    reason: str = ""
    line: int = 0
    col: int = 0


# ---------------------------------------------------------------------------
# Top level


@_node
class StubFunction(_Node):
    name: str
    params: list[tuple[str, CType]]
    return_type: CType
    is_camlprim: bool
    body: list = field(default_factory=list)
    locals: list[tuple[str, CType]] = field(default_factory=list)
    file: str = ""
    line: int = 0
    col: int = 0


@_node
class StubUnit(_Node):
    file: str
    functions: list[StubFunction] = field(default_factory=list)
    diagnostics: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Ops
#
# The parser appends an op to the current statement-level expression's list
# as it builds each node below, so ops come children before parents,
# operands left to right: `v = (n = 2)` gives ASSIGN n before ASSIGN v, and
# `f(g(x))` gives CALL g before CALL f.  Conditions, `return`, expression
# statements, each initializer and the `for` step have a list of their own;
# `case` labels, global initializers and `#if` guards give no op.  An
# initialized VarDecl's list ends with the store into the declared name,
# placed at the name's token.

CALL = "call"  # (CALL, name, call): a call whose callee is a plain name
ASSIGN = "assign"  # (ASSIGN, name, op, value, where): `name op value`
ADDR = "addr"  # (ADDR, name, where): `&name`
BUMP = "bump"  # (BUMP, name): `++`/`--` on a name
DEREF = "deref"  # (DEREF, ptr, where): `*ptr`, `ptr->f` or `ptr[i]`
