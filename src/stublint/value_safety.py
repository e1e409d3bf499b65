"""Tracks which C expressions the OCaml GC can invalidate, and when.

Per variable and program point one of three facts:

  plain         ordinary C data; the GC cannot touch it
  ocaml_value   a tagged OCaml value (declared type `value`)
  heap_derived  a C pointer into an OCaml block's payload, with a
                possibly_stale bit that flips once a GC opportunity passes

The facts are an environment lattice plus one node step for
`forward_solve`.  The step collects dereference and runtime-call events,
which are judged afterwards with the lock states from lock_analysis, and
the solver keeps them from each block's last visit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .c_frontend import nodes as ast
from .c_frontend.nodes import ADDR, ASSIGN, CALL, DEREF
from .c_frontend.intrinsics import (
    ALLOC_CALLS,
    CAMLPARAM,
    CAMLXPARAM,
    DATA_DERIVE,
    ENTER_BLOCKING,
    FIELD_READ,
    FIELD_WRITE,
    STRING_DEREF,
)
from .dataflow import forward_solve
from .diagnostics import ERROR, NOTE, WARNING, Diagnostic
from .lock_analysis import LockMap, LockState, SummaryTable

PLAIN = ("plain", False)
VALUE = ("value", False)


def heap(stale: bool):
    return ("heap", bool(stale))


def is_heap(fact) -> bool:
    return fact[0] == "heap"


def is_tracked(fact) -> bool:
    """Facts whose dereference touches the OCaml heap."""
    return fact[0] in ("value", "heap")


def join_fact(a, b):
    if a == b:
        return a
    if is_heap(a) and is_heap(b):
        return heap(a[1] or b[1])
    return PLAIN


def join_env(a, b):
    if a is None:
        return b
    if b is None:
        return a
    keys = set(a) | set(b)
    return {k: join_fact(a.get(k, PLAIN), b.get(k, PLAIN)) for k in keys}


def initial_facts(fn: ast.StubFunction) -> dict:
    env = {}
    for name, ctype in fn.params:
        if name:
            env[name] = VALUE if ctype.is_value else PLAIN
    for name, ctype in fn.locals:
        env.setdefault(name, VALUE if ctype.is_value else PLAIN)
    return env


def fact_of(expr, env, derive_stale: bool = False):
    """Classify an expression.

    derive_stale marks fresh derivations (Data_*_val, value-to-pointer
    casts) as already stale; the node step sets it when the lock is not
    definitely held, because the GC may move the block between computing
    the address and any later use.  Event operands always classify with
    derive_stale=False: within a single expression there is no such window,
    so an unlocked inline dereference stays a lock finding, not a stale one.
    """
    if expr is None:
        return PLAIN
    if isinstance(expr, ast.Name):
        return env.get(expr.ident, PLAIN)
    if isinstance(expr, ast.Call):
        name = expr.callee
        if name in DATA_DERIVE:
            return heap(derive_stale)
        if name == FIELD_READ:
            return VALUE
        if name in ALLOC_CALLS:
            return VALUE
        if name is not None and name.startswith("Val_"):
            return VALUE
        return PLAIN
    if isinstance(expr, ast.Cast):
        if expr.ctype.is_value:
            return VALUE
        if expr.ctype.pointers > 0 or expr.ctype.array:
            inner = fact_of(expr.operand, env, derive_stale)
            if inner == VALUE:
                return heap(derive_stale)
            if is_heap(inner):
                return inner
        return PLAIN
    if isinstance(expr, ast.Unary):
        if expr.op in ("++", "--"):
            return fact_of(expr.operand, env, derive_stale)
        return PLAIN
    if isinstance(expr, ast.Binary):
        if expr.op in ("+", "-"):
            left = fact_of(expr.left, env, derive_stale)
            right = fact_of(expr.right, env, derive_stale)
            if is_heap(left) and not is_tracked(right):
                return left
            if is_heap(right) and not is_tracked(left):
                return right
        return PLAIN
    if isinstance(expr, ast.Ternary):
        return join_fact(
            fact_of(expr.then, env, derive_stale),
            fact_of(expr.els, env, derive_stale),
        )
    if isinstance(expr, ast.Assign):
        return fact_of(expr.value, env, derive_stale)
    return PLAIN


# -- dataflow ---------------------------------------------------------------


@dataclass(slots=True)
class DerefEvent:
    kind: str  # "value_macro_deref", "explicit_deref", or "runtime_call"
    subject: str
    fact: tuple
    node_id: int
    file: str
    line: int
    col: int


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


def track_values(cfg, lockmap: LockMap, table: SummaryTable):
    """Solve the value facts; returns (heads, events, notes).

    heads holds the facts at each block head.  The node step first judges
    the node's ops against the facts at the node's entry, so the node's own
    stores never change how it is judged, and appends the dereference and
    runtime-call events and the escape notes to the solver's findings,
    which keep each block's last visit.  Then it applies the node's effect.
    """
    lock_at = lockmap.states
    file = cfg.fn.file
    lookup = table.lookup

    def step(node, env, found):
        gc_point = False
        for op in node.ops:
            kind, where = op[0], op[-1]
            if kind == CALL:
                name = op[1]
                if name == FIELD_READ or name == FIELD_WRITE or name in STRING_DEREF:
                    if not where.args:
                        continue
                    kind, operand = "value_macro_deref", where.args[0]
                else:
                    effects = lookup(name)
                    if name == ENTER_BLOCKING or "may_gc" in effects:
                        gc_point = True
                    if "requires_lock" not in effects:
                        continue
                    kind, operand = "runtime_call", None
            elif kind == DEREF:
                kind, operand = "explicit_deref", op[1]
            else:
                if kind == ADDR and is_tracked(env.get(op[1], PLAIN)):
                    message = (
                        f"address of '{op[1]}' escapes;"
                        " it is no longer tracked as an OCaml value"
                    )
                    note = Diagnostic("NOTE", NOTE, file, where.line, where.col, message)
                    found.append(note)
                continue
            if operand is None:  # a runtime call is judged on the lock alone
                subject, fact = op[1], PLAIN
            else:
                fact = fact_of(operand, env)
                if not is_tracked(fact):
                    continue
                subject = _sketch(operand)
            found.append(
                DerefEvent(kind, subject, fact, node.id, file, where.line, where.col)
            )

        # a GC point makes heap facts stale before any store in the node lands
        if gc_point:
            for name, fact in env.items():
                if is_heap(fact):
                    env[name] = heap(True)
        if isinstance(node.stmt, ast.Opaque):
            for name, fact in env.items():
                if is_heap(fact):
                    env[name] = PLAIN
            return env
        derive_stale = lock_at[node.id] is not LockState.HELD
        for op in node.ops:
            if op[0] == ADDR:
                if is_tracked(env.get(op[1], PLAIN)):
                    env[op[1]] = PLAIN
            elif op[0] == ASSIGN and op[2] == "=":
                env[op[1]] = fact_of(op[3], env, derive_stale)
        return env

    heads, _pops, found = forward_solve(
        cfg, initial_facts(cfg.fn), step, join_env, None, dict
    )
    events = [item for item in found if type(item) is DerefEvent]
    notes = [item for item in found if type(item) is not DerefEvent]
    return heads, events, notes


# The finding for a runtime call (True) or a dereference (False) made in a
# lock state that does not allow it: rule, severity and message.
_UNLOCKED = {
    (True, LockState.RELEASED): (
        "RUNTIME_CALL_UNLOCKED",
        ERROR,
        "{} called while the runtime lock is released",
    ),
    (True, LockState.UNKNOWN): (
        "RUNTIME_CALL_UNLOCKED",
        WARNING,
        "{} may be called without the runtime lock held",
    ),
    (False, LockState.RELEASED): (
        "VALUE_DEREF_UNLOCKED",
        ERROR,
        "'{}' dereferences an OCaml value while the runtime lock is released",
    ),
    (False, LockState.UNKNOWN): (
        "VALUE_DEREF_UNLOCKED",
        WARNING,
        "'{}' may dereference an OCaml value without the runtime lock held",
    ),
}


def check_deref_safety(events, lockmap: LockMap) -> list[Diagnostic]:
    diags = []
    for ev in events:
        lock = lockmap.at(ev.node_id)
        if lock is LockState.BOTTOM:
            continue
        call = ev.kind == "runtime_call"
        if not call and is_heap(ev.fact) and ev.fact[1]:
            diags.append(
                Diagnostic(
                    "DERIVED_PTR_STALE",
                    ERROR,
                    ev.file,
                    ev.line,
                    ev.col,
                    f"'{ev.subject}' points into an OCaml block but the GC"
                    " may have moved it since the pointer was derived",
                )
            )
            continue
        found = _UNLOCKED.get((call, lock))
        if found is not None:
            rule, severity, message = found
            diags.append(
                Diagnostic(
                    rule, severity, ev.file, ev.line, ev.col, message.format(ev.subject)
                )
            )
    return diags


# -- CAMLparam registration ---------------------------------------------------


def _first_executed_stmt(body):
    for stmt in body:
        if isinstance(stmt, ast.DeclStmt) and all(
            d.init is None for d in stmt.decls
        ):
            continue  # storage reservation only, nothing runs
        return stmt
    return None


def _camlparam_count(stmt) -> int | None:
    if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.Call):
        name = stmt.expr.callee
        if name in CAMLPARAM:
            return CAMLPARAM[name]
    return None


def check_camlparam(fn: ast.StubFunction) -> list[Diagnostic]:
    if not fn.is_camlprim:
        return []
    value_params = [name for name, t in fn.params if t.is_value]
    has_value_locals = any(t.is_value for _, t in fn.locals)
    if not value_params and not has_value_locals:
        return []
    first = _first_executed_stmt(fn.body)
    registered = _camlparam_count(first) if first is not None else None
    if registered is None:
        return [
            Diagnostic(
                "MISSING_CAMLPARAM",
                WARNING,
                fn.file,
                fn.line,
                fn.col,
                f"'{fn.name}' handles OCaml values but does not start with"
                " a CAMLparam macro",
            )
        ]
    for stmt in fn.body:
        if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.Call):
            name = stmt.expr.callee
            if name in CAMLXPARAM:
                registered += CAMLXPARAM[name]
    if registered != len(value_params):
        return [
            Diagnostic(
                "CAMLPARAM_ARITY",
                WARNING,
                fn.file,
                first.line,
                first.col,
                f"CAMLparam chain registers {registered} values but"
                f" '{fn.name}' receives {len(value_params)}",
            )
        ]
    return []
