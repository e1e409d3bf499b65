"""Pthread harness emission for external race analyzers."""

import shutil
import subprocess

import pytest

from stublint.harness_gen import LOCK_NAME, generate_main
from stublint.ml_frontend import parse_ml_externals


def decls_of(src):
    decls, errors = parse_ml_externals(src, "t.ml")
    assert errors == []
    return decls


def test_empty_input_still_yields_a_runnable_main():
    text = generate_main([])
    assert "int main(void)" in text
    assert "return 0;" in text
    assert "pthread_create" not in text


def test_one_caller_per_c_symbol():
    src = (
        'external f : int -> int = "c_f"\n'
        'external g : int -> int -> int = "c_g" "c_g_native"\n'
    )
    text = generate_main(decls_of(src))
    assert text.count("static void *__caller_") == 3  # c_f, c_g, c_g_native
    assert text.count("pthread_create") == 3
    assert text.count("pthread_join") == 3


def test_caller_locks_calls_unlocks():
    text = generate_main(decls_of('external f : int -> int = "c_f"'))
    body = text.split("__caller_c_f")[1]
    lock = body.index(f"pthread_mutex_lock(&{LOCK_NAME});")
    call = body.index("c_f(__VERIFIER_nondet_value());")
    unlock = body.index(f"pthread_mutex_unlock(&{LOCK_NAME});")
    assert lock < call < unlock


def test_lock_is_a_single_global_mutex():
    text = generate_main(decls_of('external f : int -> int = "c_f"'))
    assert f"pthread_mutex_t {LOCK_NAME} = PTHREAD_MUTEX_INITIALIZER;" in text
    assert text.count("pthread_mutex_t ") == 1


def test_argv_form_call_is_unrolled():
    src = (
        "external add_nat: nat -> int -> int -> nat -> int -> int -> int -> int\n"
        '                = "add_nat_bytecode" "add_nat_native"\n'
    )
    text = generate_main(decls_of(src))
    assert "value argv[7];" in text
    for i in range(7):
        assert f"argv[{i}] = __VERIFIER_nondet_value();" in text
    assert "add_nat_bytecode(argv, 7);" in text
    # the native caller passes seven direct nondet values
    native = text.split("__caller_add_nat_native")[1].split("}")[0]
    assert native.count("__VERIFIER_nondet_value()") == 7


def test_nondet_externs_match_used_types():
    plain = generate_main(decls_of('external f : int -> int = "c_f"'))
    assert "extern value __VERIFIER_nondet_value(void);" in plain
    assert "__VERIFIER_nondet_double" not in plain
    unboxed = generate_main(
        decls_of('external sq : float -> float = "sq_b" "sq_n" [@@unboxed]')
    )
    assert "extern double __VERIFIER_nondet_double(void);" in unboxed
    assert "sq_n(__VERIFIER_nondet_double());" in unboxed


def test_duplicate_symbols_collapse():
    src = 'external f : int -> int = "c_f"\nexternal g : int -> int = "c_f"\n'
    text = generate_main(decls_of(src))
    assert text.count("static void *__caller_c_f(") == 1


def test_builtins_are_skipped():
    text = generate_main(decls_of("external id : 'a -> 'a = \"%identity\""))
    assert "__caller_" not in text


@pytest.mark.parametrize("symbol", ["f g", "f-g", "1abc", ""])
def test_a_c_name_that_is_not_a_c_identifier_gets_no_caller(symbol):
    decls, errors = parse_ml_externals(f'external f : int -> int = "{symbol}"', "t.ml")
    assert len(errors) == 1
    assert generate_main(decls) == generate_main([])


def test_main_spawns_all_threads_before_joining():
    src = 'external f : int -> int = "c_f"\nexternal g : int -> int = "c_g"\n'
    text = generate_main(decls_of(src))
    main = text[text.index("int main") :]
    assert main.rindex("pthread_create") < main.index("pthread_join")


def test_output_is_deterministic():
    decls = decls_of('external f : int -> int = "c_f"\n')
    assert generate_main(decls) == generate_main(decls)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_generated_harness_is_valid_c(tmp_path):
    src = (
        'external f : int -> int = "c_f"\n'
        'external sq : float -> float = "sq_b" "sq_n" [@@unboxed]\n'
        "external add_nat: nat -> int -> int -> nat -> int -> int -> int -> int\n"
        '                = "add_nat_bytecode" "add_nat_native"\n'
    )
    caml = tmp_path / "caml"
    caml.mkdir()
    (caml / "mlvalues.h").write_text(
        "#ifndef FAKE_MLVALUES_H\n"
        "#define FAKE_MLVALUES_H\n"
        "#include <stdint.h>\n"
        "typedef intptr_t value;\n"
        "typedef intptr_t intnat;\n"
        "#define CAMLprim\n"
        "#endif\n"
    )
    decls = decls_of(src)
    harness = tmp_path / "harness.c"
    # prototypes first so -Werror-implicit passes, then the harness itself
    from stublint.header_gen import render_header

    harness.write_text(render_header(decls) + generate_main(decls))
    proc = subprocess.run(
        ["gcc", "-std=c99", "-Wall", "-Werror", "-fsyntax-only", "-I", str(tmp_path), str(harness)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
