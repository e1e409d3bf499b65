"""One forward solve per function over the product of the lock, value and
constant lattices.

The state at a block head is (lock state, value facts, constants), the
lattices of lock_analysis, value_safety and naked_const, joined component
by component.  The lock component reads neither of the others, so it
reaches the fixpoint it has alone.  The value component reads the lock only
to mark a fresh derivation stale when the lock is not held, and that only
rises with the lock.  So the product fixpoint is each component's own
fixpoint, and a block's last visit sees all three at theirs.

One statement step first judges each of the statement's ops against the
state at the statement's entry, with the lock state at hand: an enter or
leave the lock state does not match, as the calls before it in the
statement left it; a runtime call or a dereference of an OCaml value while
the lock is not held, or of a pointer the GC may have moved; the address of
a value escaping; an even constant stored into a value; a CAMLprim
returning to OCaml while the lock is not held.  Then it applies the
statement, unless the statement is a call that the summary table says
never returns (`noreturn`): that step returns BOTTOM, which ends the path,
so the call's successors see nothing of it.  The blocks come from the
syntax alone, and this is the one place the table ends a path.
"""

from __future__ import annotations

from .c_frontend import nodes as ast
from .c_frontend.intrinsics import (
    ALLOC_CALLS,
    ENTER_BLOCKING,
    FIELD_READ,
    FIELD_WRITE,
    MACRO_NAMES,
    STRING_DEREF,
)
from .c_frontend.nodes import ADDR, ASSIGN, BUMP, CALL, DEREF
from .dataflow import Fixpoint, forward_solve
from .diagnostics import ERROR, NOTE, WARNING, Diagnostic
from .lock_analysis import NORETURN_BUILTINS, LockState, SummaryTable
from .lock_analysis import join_lock, step_call
from .naked_const import eval_const, join_const_env, value_vars
from .value_safety import (
    PLAIN,
    fact_of,
    heap,
    initial_facts,
    is_heap,
    is_tracked,
    join_env,
)

BOTTOM = (LockState.BOTTOM, None, None)

# Runtime macros that read or write the block their first argument names.
_DEREF_MACROS = frozenset({FIELD_READ, FIELD_WRITE}) | STRING_DEREF


def join(a, b):
    if a[0] is LockState.BOTTOM:
        return b
    return join_lock(a[0], b[0]), join_env(a[1], b[1]), join_const_env(a[2], b[2])


def fresh(state):
    return state[0], dict(state[1]), dict(state[2])


# The finding for a runtime call (True) or a dereference (False) made in a
# lock state that does not allow it: rule, severity and message.
_UNLOCKED = {
    (call, state): (rule, severity, message)
    for call, state, rule, severity, message in (
        (True, LockState.RELEASED, "RUNTIME_CALL_UNLOCKED", ERROR,
         "{} called while the runtime lock is released"),
        (True, LockState.UNKNOWN, "RUNTIME_CALL_UNLOCKED", WARNING,
         "{} may be called without the runtime lock held"),
        (False, LockState.RELEASED, "VALUE_DEREF_UNLOCKED", ERROR,
         "'{}' dereferences an OCaml value while the runtime lock is released"),
        (False, LockState.UNKNOWN, "VALUE_DEREF_UNLOCKED", WARNING,
         "'{}' may dereference an OCaml value without the runtime lock held"),
    )
}


# The finding for a stub that returns to OCaml in a lock state that is not
# held: severity and message.
_RETURN_UNLOCKED = {
    LockState.RELEASED: (ERROR, "'{}' returns to OCaml without the runtime lock"),
    LockState.UNKNOWN: (WARNING, "'{}' may return to OCaml without the runtime lock"),
}


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
                    continue  # no summary applies: neither lock nor GC moves
                else:
                    lock, unbalanced = step_call(name, lock, table)
                    if unbalanced is not None:
                        report(found, where, *unbalanced)
                    effects = lookup(name)
                    if name == ENTER_BLOCKING or "may_gc" in effects:
                        gc_point = True
                    if isinstance(stmt, ast.ExprStmt) and where is stmt.expr:
                        # the statement is this call: is it one that never returns?
                        ends = name in NORETURN_BUILTINS or "noreturn" in effects
                    if entry is not LockState.HELD and "requires_lock" in effects:
                        rule, severity, message = _UNLOCKED[True, entry]
                        report(found, where, rule, severity, message.format(name))
                    continue
            elif kind == DEREF:
                operand, where = op[1], op[2]
            else:
                if kind == ADDR and is_tracked(env.get(op[1], PLAIN)):
                    message = (
                        f"address of '{op[1]}' escapes;"
                        " it is no longer tracked as an OCaml value"
                    )
                    report(found, op[2], "NOTE", NOTE, message)
                continue
            fact = fact_of(operand, env)
            if is_heap(fact) and fact[1]:
                message = (
                    f"'{_sketch(operand)}' points into an OCaml block but the GC"
                    " may have moved it since the pointer was derived"
                )
                report(found, where, "DERIVED_PTR_STALE", ERROR, message)
            elif is_tracked(fact) and entry is not LockState.HELD:
                rule, severity, message = _UNLOCKED[False, entry]
                report(found, where, rule, severity, message.format(_sketch(operand)))

        if (
            lock is not LockState.HELD
            and fn.is_camlprim
            and isinstance(stmt, ast.Return)
        ):
            severity, message = _RETURN_UNLOCKED[lock]
            report(found, stmt, "UNBALANCED_LOCK", severity, message.format(fn.name))
        if not ops and not isinstance(stmt, ast.Opaque):
            return state
        stores = ops
        if isinstance(stmt, ast.VarDecl) and not stmt.ctype.is_value:
            # the initializer's stores; the declaration's own is no value
            stores = ops[:-1]
        for op in stores:
            if op[0] != ASSIGN or op[2] != "=" or op[1] not in values:
                continue
            rhs = op[3]
            if isinstance(rhs, ast.Call) and rhs.callee in ALLOC_CALLS:
                continue  # runtime allocations are well-formed by construction
            k = eval_const(rhs, consts)
            if k is not None and k & 1 == 0:
                message = (
                    f"constant {k} stored into OCaml value '{op[1]}' has a"
                    " clear low bit; the GC would chase it as a pointer"
                )
                report(found, op[4], "NAKED_POINTER", ERROR, message)
        if ends:
            return BOTTOM

        # a GC point makes heap facts stale before the statement's stores land
        if gc_point:
            for name, fact in env.items():
                if is_heap(fact):
                    env[name] = heap(True)
        if isinstance(stmt, ast.Opaque):
            for name, fact in env.items():
                if is_heap(fact):
                    env[name] = PLAIN
            consts.clear()
            return lock, env, consts
        derive_stale = entry is not LockState.HELD
        for op in ops:
            kind = op[0]
            if kind == ASSIGN:
                name = op[1]
                k = None
                if op[2] == "=":
                    env[name] = fact_of(op[3], env, derive_stale)
                    k = eval_const(op[3], consts)
                if k is None:
                    consts.pop(name, None)
                else:
                    consts[name] = k
            elif kind == ADDR or kind == BUMP:
                name = op[1]
                if kind == ADDR and is_tracked(env.get(name, PLAIN)):
                    env[name] = PLAIN
                consts.pop(name, None)
        return lock, env, consts

    init = (LockState.HELD, initial_facts(fn), {})
    return forward_solve(cfg, init, step, join, BOTTOM, fresh)
