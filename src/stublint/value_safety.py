"""Tracks which C expressions the OCaml GC can invalidate, and when.

Per variable and program point one of four facts, module constants
compared by identity:

  PLAIN   ordinary C data; the GC cannot touch it
  VALUE   a tagged OCaml value (declared type `value`)
  HEAP    a C pointer into an OCaml block's payload
  STALE   such a pointer after a GC opportunity has passed: the GC may
          have moved the block

A variable's facts from two paths join to the fact itself when they agree,
to STALE when both point into a block, and to PLAIN otherwise.  The facts
are an environment lattice plus `fact_of`, the value component of the one
product solve per function (`analysis`).  Its statement step walks the
statement in C's evaluation order and judges each dereference against
the facts as the walk has moved them and the lock state at the
statement's entry; a GC point makes every HEAP fact STALE at the call
that makes it, so a pointer read later in the same expression is stale.
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

PLAIN = "plain"
VALUE = "value"
HEAP = "heap"
STALE = "stale"


def join_fact(a, b):
    if a is b:
        return a
    if (a is HEAP or a is STALE) and (b is HEAP or b is STALE):
        return STALE
    return PLAIN


def join_env(a, b):
    if a == b:
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

    derive_stale makes fresh derivations (Data_*_val, String_val,
    Bytes_val, value-to-pointer casts) STALE, not HEAP; the statement step
    sets it when the lock is not definitely held, because the GC may move
    the block between computing the address and any later use.  A judged
    operand always classifies with derive_stale=False: within a single
    expression there is no such window, so an unlocked inline dereference
    stays a lock finding, not a stale one.
    """
    if expr is None or isinstance(expr, ast.Num):  # the commonest plain case
        return PLAIN
    if isinstance(expr, ast.Name):
        return env.get(expr.ident, PLAIN)
    if isinstance(expr, ast.Call):
        name = expr.callee
        if name in DATA_DERIVE or name in STRING_DEREF:
            return STALE if derive_stale else HEAP
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
            if inner is VALUE:
                return STALE if derive_stale else HEAP
            if inner is HEAP or inner is STALE:
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
            if right is PLAIN and (left is HEAP or left is STALE):
                return left
            if left is PLAIN and (right is HEAP or right is STALE):
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
    # the body holds only what executes: a declaration with no
    # initializer is not in it, an initialized one runs before a CAMLparam
    first = fn.body[0] if fn.body else None
    registered = _camlparam_count(first)
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
