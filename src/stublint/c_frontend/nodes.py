"""AST shapes for the C stub subset, and their lowering into ops.

Expression nodes carry (line, col) of their introducing token.  Statement
bodies are plain Python lists; there is no separate Block node.  The
analyses never walk expression trees themselves: `lower_ops` turns each
statement into the flat ops its CFG node carries (see "Lowering" below).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True, slots=True)
class CType:
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


@dataclass(slots=True)
class Num:
    text: str
    value: int | float | None = None
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class StrLit:
    text: str
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class CharLit:
    text: str
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class Name:
    ident: str
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class Call:
    func: object  # usually Name
    args: list = field(default_factory=list)
    line: int = 0
    col: int = 0

    @property
    def callee(self) -> str | None:
        return self.func.ident if isinstance(self.func, Name) else None


@dataclass(slots=True)
class Unary:
    op: str
    operand: object = None
    prefix: bool = True
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class Binary:
    op: str
    left: object = None
    right: object = None
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class Ternary:
    cond: object = None
    then: object = None
    els: object = None
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class Assign:
    target: object = None
    value: object = None
    op: str = "="
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class Cast:
    ctype: CType = None
    operand: object = None
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class Member:
    obj: object = None
    fieldname: str = ""
    arrow: bool = False
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class Index:
    obj: object = None
    index: object = None
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class SizeofType:
    ctype: CType = None
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class CompoundLit:
    ctype: CType = None
    inits: list = field(default_factory=list)
    line: int = 0
    col: int = 0


# ---------------------------------------------------------------------------
# Statements


@dataclass(slots=True)
class VarDecl:
    name: str
    ctype: CType
    init: object = None
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class DeclStmt:
    decls: list[VarDecl] = field(default_factory=list)
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class ExprStmt:
    expr: object = None
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class If:
    cond: object = None
    then: list = field(default_factory=list)
    els: list | None = None
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class While:
    cond: object = None
    body: list = field(default_factory=list)
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class DoWhile:
    body: list = field(default_factory=list)
    cond: object = None
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class For:
    init: object = None  # DeclStmt | ExprStmt | None
    cond: object = None
    step: object = None
    body: list = field(default_factory=list)
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class SwitchCase:
    labels: list = field(default_factory=list)  # exprs; None = default
    body: list = field(default_factory=list)
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class Switch:
    subject: object = None
    cases: list[SwitchCase] = field(default_factory=list)
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class Return:
    expr: object = None
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class Break:
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class Continue:
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class Opaque:
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


@dataclass(slots=True)
class StubFunction:
    name: str
    params: list[tuple[str, CType]]
    return_type: CType
    is_camlprim: bool
    body: list = field(default_factory=list)
    locals: list[tuple[str, CType]] = field(default_factory=list)
    file: str = ""
    line: int = 0
    col: int = 0


@dataclass(slots=True)
class StubUnit:
    file: str
    functions: list[StubFunction] = field(default_factory=list)
    diagnostics: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Lowering
#
# build_cfg lowers each statement once into `ops`, a flat tuple of the
# effects its own expressions have; every analysis transfers and reports over
# those ops instead of walking the expression tree again.  Ops come in the
# order walk_expr visits the tree: children before parents, operands left to
# right.  So `v = (n = 2)` gives ASSIGN n before ASSIGN v, and `f(g(x))`
# gives CALL g before CALL f.  An initialized VarDecl ends with an ASSIGN of
# its initializer to the declared name.

CALL = "call"  # (CALL, name, call): a call whose callee is a plain name
ASSIGN = "assign"  # (ASSIGN, name, op, value, where): `name op value`
ADDR = "addr"  # (ADDR, name, where): `&name`
BUMP = "bump"  # (BUMP, name): `++`/`--` on a name
DEREF = "deref"  # (DEREF, ptr, where): `*ptr`, `ptr->f` or `ptr[i]`

_EXPR_FIELDS = {
    Num: (),
    StrLit: (),
    CharLit: (),
    Name: (),
    Call: ("func", "args"),
    Unary: ("operand",),
    Binary: ("left", "right"),
    Ternary: ("cond", "then", "els"),
    Assign: ("target", "value"),
    Cast: ("operand",),
    Member: ("obj",),
    Index: ("obj", "index"),
    SizeofType: (),
    CompoundLit: ("inits",),
}


def walk_expr(expr):
    """Yield every node of an expression tree, children before parents
    (C evaluates arguments before the call, so this is evaluation-ish
    order for the purposes the analyses care about)."""
    if expr is None:
        return
    fields = _EXPR_FIELDS.get(type(expr))
    if fields is None:
        return
    for name in fields:
        child = getattr(expr, name)
        if isinstance(child, list):
            for sub in child:
                yield from walk_expr(sub)
        else:
            yield from walk_expr(child)
    yield expr


def stmt_exprs(stmt):
    """Expressions evaluated *at* a statement, not inside nested bodies.

    CFG lowering gives nested statements their own nodes, so a node's ops
    come from its own expressions only.
    """
    if isinstance(stmt, ExprStmt):
        return [stmt.expr]
    if isinstance(stmt, VarDecl):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, DeclStmt):
        return [d.init for d in stmt.decls if d.init is not None]
    if isinstance(stmt, (If, While, DoWhile)):
        return [stmt.cond]
    if isinstance(stmt, For):
        return [stmt.cond] if stmt.cond is not None else []
    if isinstance(stmt, Switch):
        return [stmt.subject]
    if isinstance(stmt, Return):
        return [stmt.expr] if stmt.expr is not None else []
    return []


def lower_ops(stmt) -> tuple:
    """The ops of one statement, in walk_expr order."""
    ops = []
    for expr in stmt_exprs(stmt):
        for sub in walk_expr(expr):
            if isinstance(sub, Call):
                if isinstance(sub.func, Name):
                    ops.append((CALL, sub.func.ident, sub))
            elif isinstance(sub, Assign):
                if isinstance(sub.target, Name):
                    ops.append((ASSIGN, sub.target.ident, sub.op, sub.value, sub))
            elif isinstance(sub, Unary):
                if sub.op == "*":
                    ops.append((DEREF, sub.operand, sub))
                elif isinstance(sub.operand, Name):
                    if sub.op == "&":
                        ops.append((ADDR, sub.operand.ident, sub))
                    elif sub.op in ("++", "--"):
                        ops.append((BUMP, sub.operand.ident))
            elif isinstance(sub, Member):
                if sub.arrow:
                    ops.append((DEREF, sub.obj, sub))
            elif isinstance(sub, Index):
                ops.append((DEREF, sub.obj, sub))
    if isinstance(stmt, VarDecl) and stmt.init is not None:
        ops.append((ASSIGN, stmt.name, "=", stmt.init, stmt))
    return tuple(ops)
