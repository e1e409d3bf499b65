"""Prototype header generation, including a real-compiler syntax oracle."""

import shutil
import subprocess

import pytest

from stublint.header_gen import prototypes_for, render_header, render_prototype
from stublint.ml_frontend import parse_ml_externals


def decls_of(src):
    decls, errors = parse_ml_externals(src, "t.ml")
    assert errors == []
    return decls


ADD_NAT = (
    "external add_nat: nat -> int -> int -> nat -> int -> int -> int -> int\n"
    '                = "add_nat_bytecode" "add_nat_native"\n'
)


def test_high_arity_bytecode_uses_argv_convention():
    protos, diags = prototypes_for(decls_of(ADD_NAT)[0])
    assert diags == []
    byte = protos[0]
    assert render_prototype(byte) == (
        "CAMLprim value add_nat_bytecode(value *argv, int argn);"
    )
    native = protos[1]
    assert render_prototype(native) == (
        "CAMLprim value add_nat_native(value arg1, value arg2, value arg3,"
        " value arg4, value arg5, value arg6, value arg7);"
    )


def test_direct_arity_one_value_per_argument():
    (proto,), _ = prototypes_for(decls_of('external f : int -> int = "c_f"')[0])
    assert render_prototype(proto) == "CAMLprim value c_f(value arg1);"


def test_unboxed_native_parameters():
    src = 'external sq : float -> float = "sq_byte" "sq_native" [@@unboxed]\n'
    protos, _ = prototypes_for(decls_of(src)[0])
    assert render_prototype(protos[0]) == "CAMLprim value sq_byte(value arg1);"
    assert render_prototype(protos[1]) == "CAMLprim double sq_native(double arg1);"


def test_high_arity_without_native_name_is_an_error():
    src = 'external f : int -> int -> int -> int -> int -> int -> int = "c_f"\n'
    protos, diags = prototypes_for(decls_of(src)[0])
    assert [d.rule_id for d in diags] == ["ARITY_MISMATCH"]
    assert protos and protos[0].is_argv_form  # header stays usable anyway


def test_compiler_builtins_have_no_c_symbol():
    protos, diags = prototypes_for(decls_of("external id : 'a -> 'a = \"%identity\"")[0])
    assert protos == [] and diags == []


@pytest.mark.parametrize("symbol", ["f g", "f-g", "1abc", ""])
def test_a_c_name_that_is_not_a_c_identifier_gets_no_prototype(symbol):
    decls, errors = parse_ml_externals(f'external f : int -> int = "{symbol}"', "t.ml")
    assert len(errors) == 1
    assert render_header(decls) == render_header([])


def test_header_lists_declarations_in_input_order():
    src = (
        'external b : int -> int = "c_b"\n'
        'external a : int -> int = "c_a"\n'
    )
    header = render_header(decls_of(src))
    assert header.index("c_b") < header.index("c_a")


def test_header_is_deterministic():
    decls = decls_of(ADD_NAT + 'external f : int -> int = "c_f"\n')
    assert render_header(decls) == render_header(decls)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_generated_header_is_valid_c(tmp_path):
    src = (
        ADD_NAT
        + 'external f : int -> int = "c_f"\n'
        + 'external sq : float -> float = "sq_byte" "sq_native" [@@unboxed]\n'
        + 'external w : int32 -> int64 = "w_byte" "w_native" [@@boxed]\n'
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
    header = tmp_path / "stubs.h"
    header.write_text(render_header(decls_of(src)))
    main = tmp_path / "use.c"
    main.write_text(f'#include "{header}"\nint main(void) {{ return 0; }}\n')
    proc = subprocess.run(
        ["gcc", "-std=c99", "-Wall", "-Werror", "-fsyntax-only", "-I", str(tmp_path), str(main)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
