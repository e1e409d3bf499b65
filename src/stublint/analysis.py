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

One statement step makes two passes over the statement's ops, and each op
kind is handled in exactly one of them.  The first judges calls and
dereferences against the state at the statement's entry, with the lock
state at hand: a call that releases or acquires the lock in a lock state
that does not match, as the calls before it in the statement left it; a
runtime call or a dereference of an OCaml value while the lock is not held,
or of a pointer the GC may have moved (STALE).  Then the step judges a
CAMLprim returning to OCaml while the lock is not held.  The second pass
applies the stores, address-takings and increments in order, and judges
each store and each `&` where it lands, against what the statement's
earlier ops left (C's comma is a sequence point): an even constant stored
into a value, folded once both to judge and to apply (`v -= 1` folds
`v - 1` from the constant `v` held); the address of a value escaping.  A
store's own operand is folded against the constants as they stood before
its ops, which come first, landed: `t = t + 1` inside it reads `t` once,
and a `?:` condition reads no arm's store.  The ops of an arm of `?:`, or
of the right operand of `&&` or `||`, may not run: the JOIN after them
keeps each constant they moved only where it equals the one before them,
the join of both outcomes.  Value facts take no such join: a store there
moves them as if it always ran.  A statement that is a call the summary
table says never returns (`noreturn`) returns BOTTOM after that pass,
which ends the path, so the call's successors see nothing of it.  The
blocks come from the syntax alone, and this is the one place the table
ends a path.  Every lock
finding comes from the one table of `lock_analysis`, keyed by (event, lock
state); a call or dereference made while the lock is held looks nothing up
in it.

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
from .c_frontend.nodes import ADDR, ASSIGN, CALL, DEREF, JOIN
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
    fn = cfg.fn
    file = fn.file
    lookup = table.lookup
    values = value_vars(fn)

    def report(found, where, rule, severity, message):
        found.append(Diagnostic(rule, severity, file, where.line, where.col, message))

    def step(stmt, state, found):
        entry, env, consts = state
        if isinstance(stmt, ast.Opaque):
            for name, fact in env.items():
                if fact is HEAP or fact is STALE:
                    env[name] = PLAIN
            consts.clear()
            return state
        lock = entry
        ops = stmt.ops
        gc_point = ends = False
        for op in ops:
            kind = op[0]
            if kind == CALL:
                name, where = op[1], op[2]
                if name in _DEREF_MACROS:
                    if not where.args:
                        continue
                    operand = where.args[0]
                elif name in MACRO_NAMES:
                    continue  # a macro, no function: no summary applies
                else:
                    effects = lookup(name)
                    lock, unbalanced = step_call(name, lock, effects)
                    if unbalanced is not None:
                        report(found, where, *unbalanced)
                    if "may_gc" in effects:
                        gc_point = True
                    if isinstance(stmt, ast.ExprStmt) and where is stmt.expr:
                        # the statement is this call: is it one that never returns?
                        ends = "noreturn" in effects
                    if entry is not LockState.HELD and "requires_lock" in effects:
                        report(found, where, *judge_lock("requires_lock", entry, name))
                    continue
            elif kind == DEREF:
                operand, where = op[1], op[2]
            else:
                continue
            fact = fact_of(operand, env)
            if fact is STALE:
                message = (
                    f"'{_sketch(operand)}' points into an OCaml block but the GC"
                    " may have moved it since the pointer was derived"
                )
                report(found, where, "DERIVED_PTR_STALE", ERROR, message)
            elif fact is not PLAIN and entry is not LockState.HELD:
                report(found, where, *judge_lock("deref", entry, _sketch(operand)))

        if (
            lock is not LockState.HELD
            and fn.is_camlprim
            and isinstance(stmt, ast.Return)
        ):
            report(found, stmt, *judge_lock("return", lock, fn.name))

        # a GC point makes heap facts stale before the statement's stores land
        if gc_point:
            for name, fact in env.items():
                if fact is HEAP:
                    env[name] = STALE
        derive_stale = entry is not LockState.HELD
        moved = []  # (index, name, constant before) of each op landed
        for i, op in enumerate(ops):
            kind, name = op[0], op[1]
            k = None
            if kind == ASSIGN:
                if op[2] == "=":
                    env[name] = fact_of(op[3], env, derive_stale)
                # fold the operand against the constants its own ops found
                undo = moved and {var: c for j, var, c in reversed(moved) if j >= op[4]}
                k = eval_const(op[3], {**consts, **undo} if undo else consts)
                # a non-value declaration's own store (its last op) makes a
                # C variable, even one named like a value
                if (
                    k is not None
                    and k & 1 == 0
                    and name in values
                    and not (
                        op is ops[-1]
                        and isinstance(stmt, ast.VarDecl)
                        and not stmt.ctype.is_value
                    )
                ):
                    message = (
                        f"constant {k} stored into OCaml value '{name}' has a"
                        " clear low bit; the GC would chase it as a pointer"
                    )
                    report(found, op[5], "NAKED_POINTER", ERROR, message)
            elif kind == ADDR and env.get(name, PLAIN) is not PLAIN:
                message = (
                    f"address of '{name}' escapes;"
                    " it is no longer tracked as an OCaml value"
                )
                report(found, op[2], "NOTE", NOTE, message)
                env[name] = PLAIN
            elif kind == CALL or kind == DEREF:
                continue
            elif kind == JOIN:  # the ops since op[1] may not have run
                for j, var, c in moved:
                    if j >= op[1] and consts.get(var) != c:
                        consts.pop(var, None)  # the join of both outcomes
                continue
            if op is not ops[-1]:  # a later store's operand may need it undone
                moved.append((i, name, consts.get(name)))
            if k is None:
                consts.pop(name, None)
            else:
                consts[name] = k
        if ends:
            return BOTTOM
        return lock, env, consts

    init = (LockState.HELD, initial_facts(fn), {})
    return forward_solve(cfg, init, step, join, BOTTOM, fresh)
