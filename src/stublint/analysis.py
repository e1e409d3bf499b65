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
inside the operand reads `t` once.  At `?:`, `&&` and `||` the walk
forks and joins the solver's state as the CFG does at the `if` that CIL
makes of them (`Walk.branch`): an arm that the condition's fold rules
out is BOTTOM, every other arm starts from a fresh copy of the state the
condition left, and the state after is the `join` of the arms.  The fold
reads the constants from before the condition's own stores, so it rules
out an arm only when the condition moved no constant.  `sizeof`
evaluates nothing.  A `return` is the last node of its walk, judged as a
CAMLprim returning to OCaml while the lock is not held.  A call the
summary table says never returns (`noreturn`) makes the state BOTTOM
wherever it sits in the expression, and the walk applies nothing once
the state is BOTTOM: an arm that raises joins as BOTTOM, and a step that
returns BOTTOM ends the path, so the call's successors see nothing of
it.  The blocks come from the syntax alone, and `Walk.call` is the one
place the table ends a path.  Every lock finding comes from the one table
of `lock_analysis`, keyed by (event, lock state); a call or dereference
made while the lock is held looks nothing up in it.

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
    if b is BOTTOM:
        return a
    return join_lock(a[0], b[0]), join_env(a[1], b[1]), join_const_env(a[2], b[2])


def fresh(state):
    """A copy of `state` that a step may update in place; BOTTOM stays."""
    return state if state is BOTTOM else (state[0], dict(state[1]), dict(state[2]))


def _sketch(expr, env) -> str:
    if isinstance(expr, ast.Name):
        return expr.ident
    if isinstance(expr, ast.Call):
        name = expr.callee
        return f"{name}(...)" if name else "<call>"
    if isinstance(expr, ast.Member):
        op = "->" if expr.arrow else "."
        return f"{_sketch(expr.obj, env)}{op}{expr.fieldname}"
    if isinstance(expr, ast.Index):
        return f"{_sketch(expr.obj, env)}[...]"
    if isinstance(expr, ast.Unary) and expr.op in ("*", "++", "--"):
        inner = _sketch(expr.operand, env)
        return f"*{inner}" if expr.op == "*" else inner
    if isinstance(expr, ast.Cast):
        return _sketch(expr.operand, env)
    if isinstance(expr, ast.Binary) and expr.op in ("+", "-"):
        # pointer arithmetic: the operand that points, as `fact_of` reads it
        pointer = expr.left if fact_of(expr.left, env) is not PLAIN else expr.right
        return _sketch(pointer, env)
    if isinstance(expr, ast.Assign):
        return _sketch(expr.target, env)
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
    walk of one statement, `visit` walks a node and its operands, `branch`
    forks and joins the state at a conditional, and `call`, `deref` and
    `store` apply and judge what a node does.  `state` is the solver's
    state as the walk has moved it, BOTTOM once the path has ended, and
    `entry` is the lock state at the statement's entry."""

    def __init__(self, fn, table: SummaryTable):
        self.fn = fn
        self.lookup = table.lookup
        self.values = value_vars(fn)

    def report(self, where, rule, severity, message):
        self.found.append(
            Diagnostic(rule, severity, self.fn.file, where.line, where.col, message)
        )

    def step(self, stmt, state, found):
        kind = type(stmt)
        if kind is ast.Opaque:
            env = state[1]
            for name, fact in env.items():
                if fact is HEAP or fact is STALE:
                    env[name] = PLAIN
            state[2].clear()
            return state
        self.entry = state[0]
        self.state = state
        self.found = found
        if kind is ast.VarDecl:
            # a non-value declaration's own store makes a C variable, even
            # one named like a value
            self.store(stmt.name, stmt.init, "=", stmt, stmt.ctype.is_value)
        else:
            self.visit(stmt)  # its own expression, then the statement
        return self.state

    def visit(self, node):
        kind = type(node)
        operands = OPERANDS[kind]
        if not operands or self.state is BOTTOM:
            return
        if kind is ast.Assign and type(node.target) is ast.Name:
            name = node.target.ident
            self.store(name, node.value, node.op, node, name in self.values)
            return
        if kind is ast.Ternary:
            self.branch(node.cond, node.then, node.els)
            return
        if kind is ast.Binary and (node.op == "&&" or node.op == "||"):
            # the right operand runs when the left holds, or when it does not
            arms = (node.right, None) if node.op == "&&" else (None, node.right)
            self.branch(node.left, *arms)
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
        if self.state is BOTTOM:
            return
        if kind is ast.Call:
            self.call(node)
        elif kind is ast.Unary:
            op, operand = node.op, node.operand
            if op == "*":
                self.deref(operand, node)
            elif type(operand) is ast.Name and op in ("&", "++", "--"):
                name = operand.ident
                _, env, consts = self.state
                if op == "&" and env.get(name, PLAIN) is not PLAIN:
                    message = (
                        f"address of '{name}' escapes;"
                        " it is no longer tracked as an OCaml value"
                    )
                    self.report(node, "NOTE", NOTE, message)
                    env[name] = PLAIN
                consts.pop(name, None)
        elif kind is ast.Index or kind is ast.Member and node.arrow:
            self.deref(node.obj, node)
        elif kind is ast.Return and self.state[0] is not LockState.HELD:
            if self.fn.is_camlprim:
                self.report(node, *judge_lock("return", self.state[0], self.fn.name))

    def branch(self, cond, then, els):
        """Visit `cond`, then fork the state it left into the arms `then`,
        taken when it holds, and `els`, taken when not, None being no arm.
        An arm the fold of `cond` rules out contributes BOTTOM; the fold
        reads the constants before `cond`, so it counts only when `cond`
        moved none of them.  Every other arm starts from `fresh` of the
        state, and the state after is the `join` of the arms, as at a join
        of the CFG."""
        k = eval_const(cond, self.state[2])
        before = None if k is None else dict(self.state[2])
        self.visit(cond)
        state = self.state
        if k is not None and state[2] != before:
            k = None
        joined = BOTTOM
        for arm, live in ((then, k != 0), (els, not k)):
            if live:
                self.state = fresh(state)
                if arm is not None:
                    self.visit(arm)
                joined = join(joined, self.state)
        self.state = joined

    def call(self, node):
        name = node.callee
        if name in _DEREF_MACROS:
            if node.args:
                self.deref(node.args[0], node)
            return
        if name is None or name in MACRO_NAMES:
            return  # a macro, no function: no summary applies
        effects = self.lookup(name)
        lock, env, consts = self.state
        lock, unbalanced = step_call(name, lock, effects)
        if unbalanced is not None:
            self.report(node, *unbalanced)
        if "may_gc" in effects:
            for var, fact in env.items():
                if fact is HEAP:
                    env[var] = STALE
        if self.entry is not LockState.HELD and "requires_lock" in effects:
            self.report(node, *judge_lock("requires_lock", self.entry, name))
        self.state = BOTTOM if "noreturn" in effects else (lock, env, consts)

    def deref(self, operand, where):
        env = self.state[1]
        fact = fact_of(operand, env)
        if fact is STALE:
            message = (
                f"'{_sketch(operand, env)}' points into an OCaml block but the GC"
                " may have moved it since the pointer was derived"
            )
            self.report(where, "DERIVED_PTR_STALE", ERROR, message)
        elif fact is not PLAIN and self.entry is not LockState.HELD:
            self.report(where, *judge_lock("deref", self.entry, _sketch(operand, env)))

    def store(self, name, value, op, where, judged):
        """The store of `value` into `name` at `where`, `name op value` for
        a compound `op`: the one place a store lands, and the one judge of
        a constant stored into an OCaml value when `judged`."""
        folded = value
        if op != "=":  # only an Assign, `where` itself, has such an op
            folded = ast.Binary(where.line, where.col, op[:-1], where.target, value)
        k = eval_const(folded, self.state[2])
        self.visit(value)
        if self.state is BOTTOM:
            return
        _, env, consts = self.state
        if op == "=":
            # a pointer derived without the lock may move before its use
            env[name] = fact_of(value, env, self.entry is not LockState.HELD)
        if k is None:
            consts.pop(name, None)
            return
        if judged and k & 1 == 0:
            message = (
                f"constant {k} stored into OCaml value '{name}' has a"
                " clear low bit; the GC would chase it as a pointer"
            )
            self.report(where, "NAKED_POINTER", ERROR, message)
        consts[name] = k
