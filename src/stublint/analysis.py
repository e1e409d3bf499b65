"""One forward solve per function over the product of the lock, value and
constant lattices.

The state at a block head is (lock state, value facts, constants), the
lattices of lock_analysis, value_safety and naked_const, joined component
by component.  BOTTOM, an unreached block's head, is the product's one
bottom: `join` returns the other state when one is BOTTOM, and the solver
never joins BOTTOM into a successor, so no component needs its own.  The
lock component reads neither of the others, so it reaches the fixpoint it
has alone.  The value component reads the lock only to mark a fresh
derivation stale when the lock is not held, and that only rises with the
lock.  So the product fixpoint is each component's own fixpoint, and a
block's last visit sees all three at theirs.

The statement step is one walk of the statement's expression in C's
evaluation order, as CIL splits an expression's side effects into
instructions (`Walk`).  `OPERANDS` names the operands C evaluates of each
node type, and the walk is done with them before the node that uses them,
so a call or dereference is judged after its operands.  It is judged
against the lock state at the statement's entry, with the running lock
state at hand: a call that releases or acquires the lock in a lock state
that does not match, as the calls before it left it; a runtime call or a
dereference of an OCaml value while the lock is not held, or of a pointer
the GC may have moved (STALE).  Where C leaves the order of operands
unspecified (C99 6.5p3: those of `+`, or a call's arguments), the walk
takes them left to right, as CIL does.  That is a choice, not C's order:
`caml_hash(v) + *p` reads a stale block, `*p + caml_hash(v)` does not.
Value facts and constants change in the same walk, in evaluation order:
a `may_gc` call makes HEAP facts STALE at the call, an `&` leaves its
name untracked (with a note when it held an OCaml value), and `store`,
the one place a store lands, judges an even constant stored into a
value.  A store's constant is folded before the stores inside its operand
land: `v -= 1` folds `v - 1` from the constant `v` held, and `t = t + 1`
inside the operand reads `t` once.  An arm of `?:`, or the right operand
of `&&` or `||`, runs only when a condition folded before it selects it
and moved no constant, since the fold reads the constants from before
the condition's own stores; otherwise each arm starts from the constants
before it and the constants after are the join of the arms, while value
facts and the lock move through the arms one after the other.  `sizeof`
evaluates nothing.  Then the step judges a CAMLprim returning to OCaml
while the lock is not held.  A statement that is a call the summary table
says never returns (`noreturn`) returns BOTTOM, which ends the path, so
the call's successors see nothing of it.  The blocks come from the syntax
alone, and this is the one place the table ends a path.  Every lock
finding comes from the one table of `lock_analysis`, keyed by (event,
lock state); a call or dereference made while the lock is held looks
nothing up in it.

The step looks each call up in the summary table once, and reads every
runtime fact from those effects alone: `releases_lock` and `acquires_lock`
move the lock, `may_gc` makes a GC point, `requires_lock` needs the lock,
`noreturn` ends the path.  No name decides any of them, nor any finding,
so a summary line acts the same whatever function it names.
A runtime macro (`MACRO_NAMES`) is no function: the step never looks one
up, and this is the one place a macro escapes the summaries.
"""

from __future__ import annotations

from .c_frontend import nodes as ast
from .c_frontend.intrinsics import (
    BLOCK_DEREF,
    FIELD_READ,
    FIELD_WRITE,
    MACRO_NAMES,
    STRING_DEREF,
)
from .dataflow import Fixpoint, forward_solve
from .diagnostics import ERROR, NOTE, Diagnostic
from .lock_analysis import LockState, SummaryTable, join_lock, judge_lock, step_call
from .naked_const import eval_const, join_const_env, value_vars
from .value_safety import HEAP, PLAIN, STALE, fact_of, initial_facts, join_env

BOTTOM = (LockState.BOTTOM, None, None)

# Runtime macros that read or write the block their first argument names.
_DEREF_MACROS = frozenset({FIELD_READ, FIELD_WRITE}) | STRING_DEREF | BLOCK_DEREF


def join(a, b):
    if a is BOTTOM:
        return b
    return join_lock(a[0], b[0]), join_env(a[1], b[1]), join_const_env(a[2], b[2])


def fresh(state):
    return state[0], dict(state[1]), dict(state[2])


def _sketch(expr) -> str:
    if isinstance(expr, ast.Name):
        return expr.ident
    if isinstance(expr, ast.Call):
        name = expr.callee
        return f"{name}(...)" if name else "<call>"
    if isinstance(expr, ast.Member):
        op = "->" if expr.arrow else "."
        return f"{_sketch(expr.obj)}{op}{expr.fieldname}"
    if isinstance(expr, ast.Index):
        return f"{_sketch(expr.obj)}[...]"
    if isinstance(expr, ast.Unary) and expr.op == "*":
        return f"*{_sketch(expr.operand)}"
    if isinstance(expr, ast.Cast):
        return _sketch(expr.operand)
    if isinstance(expr, ast.Assign):
        return _sketch(expr.target)
    return "<expr>"


def solve_function(cfg, table: SummaryTable) -> Fixpoint:
    """Solve the product state over the function's blocks.  Its findings
    are what each reached block's last visit judged; its heads are
    (lock, value facts, constants), BOTTOM for unreached blocks."""
    init = (LockState.HELD, initial_facts(cfg.fn), {})
    return forward_solve(cfg, init, Walk(cfg.fn, table).step, join, BOTTOM, fresh)


# The operands C evaluates of each node the walk meets, in the order it
# visits them, left to right where C leaves the order open.  A node with none is a leaf; `sizeof` and the arms of `?:`,
# `&&` and `||` are visited as the walk says, not as listed.
OPERANDS = {
    **dict.fromkeys((ast.Name, ast.Num, ast.StrLit, ast.CharLit, ast.SizeofType), ()),
    ast.Call: ("func", "args"),
    ast.Unary: ("operand",),
    ast.Binary: ("left", "right"),
    ast.Ternary: ("cond", "then", "els"),
    ast.Assign: ("target", "value"),
    ast.Cast: ("operand",),
    ast.Member: ("obj",),
    ast.Index: ("obj", "index"),
    ast.CompoundLit: ("inits",),
    # statements: their own expression, never the statements they hold
    **dict.fromkeys((ast.ExprStmt, ast.Return), ("expr",)),
    **dict.fromkeys((ast.If, ast.While, ast.DoWhile, ast.For), ("cond",)),
    ast.Switch: ("subject",),
    **dict.fromkeys((ast.Break, ast.Continue), ()),
}


class Walk:
    """The statement step of one function's solve.  `step` sets up the
    walk of one statement, `visit` walks a node and its operands, and
    `call`, `deref` and `store` apply and judge what a node does."""

    def __init__(self, fn, table: SummaryTable):
        self.fn = fn
        self.lookup = table.lookup
        self.values = value_vars(fn)

    def report(self, where, rule, severity, message):
        self.found.append(
            Diagnostic(rule, severity, self.fn.file, where.line, where.col, message)
        )

    def step(self, stmt, state, found):
        entry, env, consts = state
        kind = type(stmt)
        if kind is ast.Opaque:
            for name, fact in env.items():
                if fact is HEAP or fact is STALE:
                    env[name] = PLAIN
            consts.clear()
            return state
        self.entry = self.lock = entry
        self.env = env
        self.consts = consts
        self.found = found
        # the statement is this call: is it one that never returns?
        self.top = stmt.expr if kind is ast.ExprStmt else None
        self.ends = False
        if kind is ast.VarDecl:
            # a non-value declaration's own store makes a C variable, even
            # one named like a value
            self.store(stmt.name, stmt.init, "=", stmt, stmt.ctype.is_value)
        else:
            for field in OPERANDS[kind]:  # the statement's own expression
                expr = getattr(stmt, field)
                if expr is not None:
                    self.visit(expr)
        lock = self.lock
        if lock is not LockState.HELD and kind is ast.Return and self.fn.is_camlprim:
            self.report(stmt, *judge_lock("return", lock, self.fn.name))
        if self.ends:
            return BOTTOM
        return lock, env, self.consts

    def visit(self, node):
        kind = type(node)
        operands = OPERANDS[kind]
        if not operands:
            return
        if kind is ast.Assign and type(node.target) is ast.Name:
            name = node.target.ident
            self.store(name, node.value, node.op, node, name in self.values)
            return
        if kind is ast.Ternary:
            self.branch(node.cond, node.then, node.els)
            return
        if kind is ast.Binary and node.op == "&&":
            self.branch(node.left, node.right, None)
            return
        if kind is ast.Binary and node.op == "||":
            self.branch(node.left, None, node.right)
            return
        if kind is ast.Unary and node.op == "sizeof":
            return
        for field in operands:
            operand = getattr(node, field)
            if type(operand) is list:
                for item in operand:
                    self.visit(item)
            elif operand is not None:
                self.visit(operand)
        if kind is ast.Call:
            self.call(node)
        elif kind is ast.Unary:
            op, operand = node.op, node.operand
            if op == "*":
                self.deref(operand, node)
            elif type(operand) is ast.Name and op in ("&", "++", "--"):
                name = operand.ident
                if op == "&" and self.env.get(name, PLAIN) is not PLAIN:
                    message = (
                        f"address of '{name}' escapes;"
                        " it is no longer tracked as an OCaml value"
                    )
                    self.report(node, "NOTE", NOTE, message)
                    self.env[name] = PLAIN
                self.consts.pop(name, None)
        elif kind is ast.Index or kind is ast.Member and node.arrow:
            self.deref(node.obj, node)

    def branch(self, cond, then, els):
        """Visit `cond`, then the arm it selects: `then` when it holds,
        `els` when not, None being no arm.  The fold reads the constants
        before `cond`, so it selects an arm only when `cond` moved none of
        them.  Otherwise each arm starts from the constants `cond` left,
        and the constants after are the join of both."""
        k = eval_const(cond, self.consts)
        before = None if k is None else dict(self.consts)
        self.visit(cond)
        if k is not None and self.consts == before:
            arm = then if k else els
            if arm is not None:
                self.visit(arm)
            return
        before = self.consts
        self.consts = dict(before)
        if then is not None:
            self.visit(then)
        taken, self.consts = self.consts, before
        if els is not None:
            self.visit(els)
        self.consts = join_const_env(taken, self.consts)

    def call(self, node):
        name = node.callee
        if name in _DEREF_MACROS:
            if node.args:
                self.deref(node.args[0], node)
            return
        if name is None or name in MACRO_NAMES:
            return  # a macro, no function: no summary applies
        effects = self.lookup(name)
        self.lock, unbalanced = step_call(name, self.lock, effects)
        if unbalanced is not None:
            self.report(node, *unbalanced)
        if "may_gc" in effects:
            env = self.env
            for var, fact in env.items():
                if fact is HEAP:
                    env[var] = STALE
        if node is self.top:
            self.ends = "noreturn" in effects
        if self.entry is not LockState.HELD and "requires_lock" in effects:
            self.report(node, *judge_lock("requires_lock", self.entry, name))

    def deref(self, operand, where):
        fact = fact_of(operand, self.env)
        if fact is STALE:
            message = (
                f"'{_sketch(operand)}' points into an OCaml block but the GC"
                " may have moved it since the pointer was derived"
            )
            self.report(where, "DERIVED_PTR_STALE", ERROR, message)
        elif fact is not PLAIN and self.entry is not LockState.HELD:
            self.report(where, *judge_lock("deref", self.entry, _sketch(operand)))

    def store(self, name, value, op, where, judged):
        """The store of `value` into `name` at `where`, `name op value` for
        a compound `op`: the one place a store lands, and the one judge of
        a constant stored into an OCaml value when `judged`."""
        folded = value
        if op != "=":  # only an Assign, `where` itself, has such an op
            folded = ast.Binary(where.line, where.col, op[:-1], where.target, value)
        k = eval_const(folded, self.consts)
        self.visit(value)
        if op == "=":
            # a pointer derived without the lock may move before its use
            self.env[name] = fact_of(value, self.env, self.entry is not LockState.HELD)
        if k is None:
            self.consts.pop(name, None)
            return
        if judged and k & 1 == 0:
            message = (
                f"constant {k} stored into OCaml value '{name}' has a"
                " clear low bit; the GC would chase it as a pointer"
            )
            self.report(where, "NAKED_POINTER", ERROR, message)
        self.consts[name] = k
