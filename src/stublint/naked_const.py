"""Flags statically-known even constants stored into OCaml values.

OCaml's uniform representation keeps the low bit set on immediates, so an
even constant in a `value` slot reads as a heap pointer to the GC.  A flat
constant propagation catches the direct cases (`v = Tag_cons;`) and one-hop
flows through C temporaries; anything the propagation cannot prove is left
alone, since the check cannot show absence of naked pointers anyway.

The propagation is an environment lattice plus `eval_const`, the constant
component of the one product solve per function (`analysis`).  Its step
judges each store into a value where the store lands, in the pass that
applies the statement's stores in order, so the store sees what the
statement's earlier ops left, save its own operand's, which is folded
against the constants before they landed; the one fold gives both the
verdict and the constant the store leaves behind.  Unreached code is the
product's BOTTOM, so the environment is always a dict.

`eval_const` is the C constant folder that `#if` guards use,
`preprocess.fold`, with the store's leaf: a name is one of the runtime's
`CONSTANTS` or the environment's, `Val_int(k)` is 2k+1, a cast is
transparent, an `=` assignment is its value, and anything else (a compound
assignment among them) is unknown.  The store of a compound assignment
`n op= x` is folded as `n op x` (the parser gives its op that value).  A value C leaves undefined (a shift by
a count outside 0..63, a division by zero, a char constant past ASCII) is
unknown too.
"""

from __future__ import annotations

from .c_frontend import nodes as ast
from .c_frontend.intrinsics import CONSTANTS
from .c_frontend.preprocess import fold
from .diagnostics import Diagnostic

# Environment: dict of variable -> known int.  A variable absent from the
# dict is unknown.


def join_const_env(a, b):
    if a == b:
        return a
    return {k: v for k, v in a.items() if b.get(k) == v}


def eval_const(expr, env) -> int | None:
    """The constant `expr` holds in `env`, or None when it is unknown or
    is no constant C defines."""
    try:
        return fold(expr, _store_leaf, env)
    except (ValueError, ZeroDivisionError):
        return None


def _store_leaf(expr, env) -> int | None:
    if isinstance(expr, ast.Name):
        if expr.ident in CONSTANTS:
            return CONSTANTS[expr.ident]
        return env.get(expr.ident)
    if isinstance(expr, ast.Call):
        if expr.callee == "Val_int" and len(expr.args) == 1:
            k = fold(expr.args[0], _store_leaf, env)
            return None if k is None else 2 * k + 1
        return None
    if isinstance(expr, ast.Cast):
        # numeric identity through casts; the bit pattern is what matters
        return fold(expr.operand, _store_leaf, env)
    if isinstance(expr, ast.Assign) and expr.op == "=":
        return fold(expr.value, _store_leaf, env)
    return None


def value_vars(fn: ast.StubFunction) -> set[str]:
    names = {name for name, t in fn.params if name and t.is_value}
    names.update(name for name, t in fn.locals if t.is_value)
    return names


# -- shims for perfbench/spans.py: analysis.solve_function found it all ----


def solve_consts(cfg) -> list[Diagnostic]:
    return []


def check_naked(cfg, found: list[Diagnostic]) -> list[Diagnostic]:
    return found
