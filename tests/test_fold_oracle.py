"""One constant folder serves `#if` guards and stores into values: on
random constant expressions E, the branch `#if ((E) & 1) == 0` takes and
the NAKED_POINTER finding of `v = E;` agree, and agree with gcc where it
is installed."""

import random
import shutil
import subprocess

import pytest

from stublint.c_frontend.parser import MAX_NESTING, parse_expression, parse_unit
from stublint.c_frontend.preprocess import _not_constant, fold, preprocess_local
from stublint.cli import analyze_unit
from stublint.lock_analysis import load_summaries

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")

_BINARY = [
    "*", "/", "%", "+", "-", "<<", ">>", "<", ">", "<=", ">=", "==", "!=",
    "&", "^", "|", "&&", "||",
]
_PREFIX = ["-", "+", "~", "!"]
_CHARS = ["'a'", "'0'", "'\\n'", "'\\0'", "'\\x41'", "'\\101'", "'\\\\'", "'\\''", "L'z'"]


def _int_value(text: str):
    """The value of `text` when C defines it as an int: every operand in
    range, no shift of a negative value or by 32 or more, no division by
    zero; else None."""
    try:
        k = fold(parse_expression(text), _not_constant)
    except (ValueError, ZeroDivisionError):
        return None
    return k if -(2**31) < k < 2**31 else None


def _expressions(count: int, seed: int = 27) -> list[str]:
    """`count` constant expressions over int and char constants and every
    operator the fold folds; each subexpression has a value C defines as an
    int, so gcc, its preprocessor and stublint must all agree."""
    rng = random.Random(seed)

    def leaf() -> str:
        if rng.random() < 0.3:
            return rng.choice(_CHARS)
        k = rng.randrange(40)
        return rng.choice([str(k), hex(k), f"0{k:o}"])

    def node(depth: int) -> str:
        while True:
            shape = rng.random()
            if depth == 0 or shape < 0.2:
                return leaf()
            if shape < 0.35:
                text = f"{rng.choice(_PREFIX)}({node(depth - 1)})"
            elif shape < 0.45:
                cond, then, els = (node(depth - 1) for _ in range(3))
                text = f"({cond}) ? ({then}) : ({els})"
            else:
                left, op, right = node(depth - 1), rng.choice(_BINARY), node(depth - 1)
                if op in ("<<", ">>") and not (
                    0 <= _int_value(right) < 32 and (op == ">>" or _int_value(left) >= 0)
                ):
                    continue
                text = f"({left}) {op} ({right})"
            if _int_value(text) is not None:
                return text

    return [node(4) for _ in range(count)]


_EXPRS = _expressions(200)


def _guard_bits() -> list[int]:
    """The low bit of each expression, as the branch its guard takes."""
    source = "".join(
        f"#if (({e}) & 1) == 0\nint even_{i};\n#endif\n" for i, e in enumerate(_EXPRS)
    )
    pre = preprocess_local(source, "guards.c")
    assert pre.notes == []  # every guard folded in full
    taken = {text for _, text, _, _ in pre.tokens}
    return [int(f"even_{i}" not in taken) for i in range(len(_EXPRS))]


def _store_bits(form: str = "v = {};") -> list[int]:
    """The low bit of each expression, as the finding its store gets when
    `form` stores it into `v`."""
    stores = "".join(f"    {form.format(e)}\n" for e in _EXPRS)
    source = f"value f(value a)\n{{\n    value v;\n    long t;\n{stores}    return a;\n}}\n"
    found = analyze_unit(parse_unit(source, "stores.c"), load_summaries())
    assert not [d for d in found if d.rule_id == "UNSUPPORTED_CONSTRUCT"]
    even = {d.line for d in found if d.rule_id == "NAKED_POINTER"}
    return [int(5 + i not in even) for i in range(len(_EXPRS))]


def test_a_guard_and_a_store_fold_alike():
    bits = _guard_bits()
    assert 0 < sum(bits) < len(bits)
    assert _store_bits() == bits


def test_a_store_through_a_temporary_agrees_with_a_direct_store():
    """`t = (E), v = t;` judges `v = t` once `t = (E)` has landed, the
    comma being a sequence point."""
    assert _store_bits("t = ({}), v = t;") == _store_bits()


@pytest.mark.parametrize(
    "form", ["t = ({}), v = (t = t + 1) - 1;", "t = 1, v = t ? (t = 0) + ({}) : 1;"]
)
def test_a_store_folds_its_inner_stores_against_the_constants_they_found(form):
    """A store's inner stores land before it, but its own operand is
    folded as they found the constants: `t = t + 1` reads `t` as E, and
    the `?:` condition reads `t` as 1, before the arm's store."""
    assert _store_bits(form) == _store_bits()


@needs_gcc
def test_a_guard_and_a_store_fold_as_gcc_does(tmp_path):
    """One program prints the low bit of every expression, as the C
    compiler folds it."""
    prints = "".join(f'    printf("%d\\n", (int)(({e}) & 1));\n' for e in _EXPRS)
    program = f"int printf(const char *, ...);\nint main(void)\n{{\n{prints}    return 0;\n}}\n"
    exe = tmp_path / "bits"
    subprocess.run(
        ["gcc", "-w", "-x", "c", "-", "-o", str(exe)],
        input=program, text=True, check=True, timeout=60,
    )
    run = subprocess.run([str(exe)], capture_output=True, text=True, check=True, timeout=60)
    gcc = [int(bit) for bit in run.stdout.split()]
    assert _guard_bits() == gcc
    assert _store_bits() == gcc


def test_a_store_nested_just_under_the_cap_folds_without_a_traceback(lint_c):
    """Each `Val_int(...)` is two nesting levels, and the store's fold
    spends two frames on each, its own and the leaf's."""
    depth = (MAX_NESTING - 6) // 2

    def store(n: int) -> str:
        expr = "~1"
        for _ in range(n):
            expr = f"Val_int({expr})"
        return f"value f(value a)\n{{\n    value v;\n    v = (long){expr} - 1;\n    return a;\n}}\n"

    errors = [d for d in lint_c(store(depth)) if d.severity == "error"]
    assert [d.rule_id for d in errors] == ["NAKED_POINTER"]
    # Val_int applied n times to -2 is -(2**n) - 1
    assert f"constant {-(2**depth) - 2} stored" in errors[0].message
    deeper = [d.message for d in lint_c(store(depth + 1))]
    assert any("nested more than" in message for message in deeper)
