"""Flags statically-known even constants stored into OCaml values.

OCaml's uniform representation keeps the low bit set on immediates, so an
even constant in a `value` slot reads as a heap pointer to the GC.  A flat
constant propagation catches the direct cases (`v = Tag_cons;`) and one-hop
flows through C temporaries; anything the propagation cannot prove is left
alone, since the check cannot show absence of naked pointers anyway.

The propagation is an environment lattice plus `eval_const`, the constant
component of the one product solve per function (`analysis`), which judges
a statement's stores into values against the constants at the statement's
entry and then applies them.
"""

from __future__ import annotations

from .c_frontend import nodes as ast
from .c_frontend.intrinsics import CONSTANTS
from .diagnostics import Diagnostic

# Environment: dict of variable -> known int.  A variable absent from the
# dict is unknown; the whole environment being None marks unreachable code.


def join_const_env(a, b):
    if a is None:
        return b
    if b is None or a == b:
        return a
    return {k: v for k, v in a.items() if b.get(k) == v}


def eval_const(expr, env) -> int | None:
    if expr is None or env is None:
        return None
    if isinstance(expr, ast.Num):
        return expr.value if isinstance(expr.value, int) else None
    if isinstance(expr, ast.Name):
        if expr.ident in CONSTANTS:
            return CONSTANTS[expr.ident]
        return env.get(expr.ident)
    if isinstance(expr, ast.Call):
        if expr.callee == "Val_int" and len(expr.args) == 1:
            k = eval_const(expr.args[0], env)
            return None if k is None else 2 * k + 1
        return None
    if isinstance(expr, ast.Cast):
        # numeric identity through casts; the bit pattern is what matters
        return eval_const(expr.operand, env)
    if isinstance(expr, ast.Unary) and expr.prefix:
        k = eval_const(expr.operand, env)
        if k is None:
            return None
        if expr.op == "-":
            return -k
        if expr.op == "+":
            return k
        return None
    if isinstance(expr, ast.Binary):
        left = eval_const(expr.left, env)
        right = eval_const(expr.right, env)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "<<":
            return left << right if 0 <= right < 256 else None
        if expr.op == "|":
            return left | right
        return None
    if isinstance(expr, ast.Ternary):
        then = eval_const(expr.then, env)
        els = eval_const(expr.els, env)
        return then if then is not None and then == els else None
    if isinstance(expr, ast.Assign):
        return eval_const(expr.value, env)
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
