"""Tracks which C expressions the OCaml GC can invalidate, and when.

Per variable and program point one of three facts:

  plain         ordinary C data; the GC cannot touch it
  ocaml_value   a tagged OCaml value (declared type `value`)
  heap_derived  a C pointer into an OCaml block's payload, with a
                possibly_stale bit that flips once a GC opportunity passes

The facts are an environment lattice plus `fact_of`, the value component
of the one product solve per function (`analysis`).  Its statement step
judges each dereference and runtime call against the facts and the lock
state at the statement's entry, as it meets them.
"""

from __future__ import annotations

from .c_frontend import nodes as ast
from .c_frontend.intrinsics import (
    ALLOC_CALLS,
    CAMLPARAM,
    CAMLXPARAM,
    DATA_DERIVE,
    FIELD_READ,
    STRING_DEREF,
)
from .diagnostics import WARNING, Diagnostic

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
    if b is None or a == b:
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

    derive_stale marks fresh derivations (Data_*_val, String_val,
    Bytes_val, value-to-pointer casts) as already stale; the statement step
    sets it when the lock is not definitely held, because the GC may move the
    block between computing the address and any later use.  A judged operand always classifies with
    derive_stale=False: within a single expression there is no such window,
    so an unlocked inline dereference stays a lock finding, not a stale one.
    """
    if expr is None or isinstance(expr, ast.Num):  # the commonest plain case
        return PLAIN
    if isinstance(expr, ast.Name):
        return env.get(expr.ident, PLAIN)
    if isinstance(expr, ast.Call):
        name = expr.callee
        if name in DATA_DERIVE or name in STRING_DEREF:
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


# -- shims for perfbench/spans.py: analysis.solve_function found it all ----


def track_values(cfg, fixpoint, table):
    return (), [], []


def check_deref_safety(events, fixpoint) -> list[Diagnostic]:
    return []
