"""Flags statically-known even constants stored into OCaml values.

OCaml's uniform representation keeps the low bit set on immediates, so an
even constant in a `value` slot reads as a heap pointer to the GC.  A flat
constant propagation catches the direct cases (`v = Tag_cons;`) and one-hop
flows through C temporaries; anything the propagation cannot prove is left
alone, since the check cannot show absence of naked pointers anyway.

The propagation is an environment lattice plus one node step for
`forward_solve`; the step judges a node's stores into values against the
constants at the node's entry, then applies them.
"""

from __future__ import annotations

from .c_frontend import nodes as ast
from .c_frontend.nodes import ADDR, ASSIGN, BUMP
from .c_frontend.intrinsics import ALLOC_CALLS, CONSTANTS
from .dataflow import forward_solve
from .diagnostics import ERROR, Diagnostic

# Environment: dict of variable -> known int.  A variable absent from the
# dict is unknown; the whole environment being None marks unreachable code.


def join_const_env(a, b):
    if a is None:
        return b
    if b is None:
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


def _value_vars(fn: ast.StubFunction) -> set[str]:
    names = {name for name, t in fn.params if name and t.is_value}
    names.update(name for name, t in fn.locals if t.is_value)
    return names


def solve_consts(cfg) -> list[Diagnostic]:
    """Propagate constants, and judge every store into a value inside the
    solve, as each block's last visit saw it.  Returns the NAKED_POINTER
    findings."""
    value_vars = _value_vars(cfg.fn)
    file = cfg.fn.file

    def step(node, env, found):
        # judge each store into a value against the constants at the
        # node's entry
        ops = node.ops
        if isinstance(node.stmt, ast.VarDecl):
            # only the declaration's own store, and only into a value
            ops = ops[-1:] if node.stmt.ctype.is_value else ()
        for op in ops:
            if op[0] != ASSIGN or op[2] != "=" or op[1] not in value_vars:
                continue
            rhs = op[3]
            if isinstance(rhs, ast.Call) and rhs.callee in ALLOC_CALLS:
                continue  # runtime allocations are well-formed by construction
            k = eval_const(rhs, env)
            if k is not None and k & 1 == 0:
                where = op[4]
                found.append(
                    Diagnostic(
                        "NAKED_POINTER",
                        ERROR,
                        file,
                        where.line,
                        where.col,
                        f"constant {k} stored into OCaml value '{op[1]}' has a"
                        " clear low bit; the GC would chase it as a pointer",
                    )
                )

        # then apply the node's stores
        if isinstance(node.stmt, ast.Opaque):
            env.clear()
            return env
        for op in node.ops:
            kind = op[0]
            if kind == ASSIGN:
                k = eval_const(op[3], env) if op[2] == "=" else None
                if k is None:
                    env.pop(op[1], None)
                else:
                    env[op[1]] = k
            elif kind == BUMP or kind == ADDR:
                env.pop(op[1], None)
        return env

    return forward_solve(cfg, {}, step, join_const_env, None, dict)[2]


def check_naked(cfg, found: list[Diagnostic]) -> list[Diagnostic]:
    """The NAKED_POINTER findings; `solve_consts` collected them."""
    return found
