"""C prototype generation for OCaml primitives.

Bytecode stubs up to arity 5 take one `value` per argument; past that the
bytecode runtime switches to the (value *argv, int argn) calling convention,
which is exactly the corner the arity checker exists for.  Native stubs take
one parameter per argument with unboxed/untagged types honoured.

`prototypes_for` is the only code that knows this calling convention, and
the spelling tables below are the single source of truth: the header writer,
the harness writer and the arity cross-check (`cli._check_headers`) all go
through them.
"""

from __future__ import annotations

from collections import namedtuple

from . import ml_frontend
from .diagnostics import ERROR, Diagnostic

# C parameter categories.
CAML_VALUE = "caml_value"
C_DOUBLE = "c_double"
C_INT32 = "c_int32"
C_INT64 = "c_int64"
C_INTNAT = "c_intnat"
C_INT = "c_int"
ARGV_BLOCK = "argv_block"

# How many arguments a bytecode stub can take before the argv convention.
MAX_DIRECT_ARITY = 5

KIND_TO_PARAM = {
    ml_frontend.BOXED: CAML_VALUE,
    ml_frontend.UNBOXED_FLOAT: C_DOUBLE,
    ml_frontend.UNBOXED_INT32: C_INT32,
    ml_frontend.UNBOXED_INT64: C_INT64,
    ml_frontend.UNBOXED_NATIVEINT: C_INTNAT,
    ml_frontend.UNTAGGED_INT: C_INTNAT,
}

PARAM_SPELLING = {
    CAML_VALUE: "value",
    C_DOUBLE: "double",
    C_INT32: "int32_t",
    C_INT64: "int64_t",
    C_INTNAT: "intnat",
    C_INT: "int",
}

HEADER_PREAMBLE = (
    "/* AUTOGENERATED FILE, DO NOT EDIT */\n"
    "#define CAML_NAME_SPACE\n"
    "#define _GNU_SOURCE\n"
    "#define _XOPEN_SOURCE 600\n"
    "#include <caml/mlvalues.h>\n"
)


class CPrototype(namedtuple("CPrototype", "c_name params returns flavor")):
    """params is a tuple of C type spellings; flavor is "bytecode" or
    "native"."""

    __slots__ = ()

    @property
    def is_argv_form(self) -> bool:
        return self.params == (ARGV_BLOCK, C_INT)


def prototypes_for(decl: ml_frontend.ExternalDecl):
    """Prototypes a declaration needs, plus any diagnostics.

    One bytecode prototype always; a native one when the declaration names a
    second symbol.  An arity > 5 declaration with a single name cannot be
    compiled by OCaml at all, which is flagged (the argv-form prototype is
    still emitted so the header stays usable).
    """
    protos = []
    diags = []

    if decl.byte_name.startswith("%"):
        return protos, diags  # compiler builtin, no C symbol behind it

    if decl.arity > MAX_DIRECT_ARITY:
        byte_params = (ARGV_BLOCK, C_INT)
        if decl.native_name is None:
            file, line, col = decl.source_loc
            diags.append(
                Diagnostic(
                    "ARITY_MISMATCH",
                    ERROR,
                    file,
                    line,
                    col,
                    f"external '{decl.ocaml_name}' has arity {decl.arity}"
                    " (> 5) but declares no separate native C name;"
                    " OCaml cannot compile this declaration",
                )
            )
    else:
        # the bytecode interpreter always passes boxed values; unboxing
        # attributes only change the native entry point
        byte_params = (CAML_VALUE,) * decl.arity
    protos.append(
        CPrototype(decl.byte_name, byte_params, CAML_VALUE, "bytecode")
    )

    if decl.native_name is not None:
        protos.append(
            CPrototype(
                decl.native_name,
                tuple(KIND_TO_PARAM[k] for k in decl.arg_kinds),
                KIND_TO_PARAM[decl.return_kind],
                "native",
            )
        )
    return protos, diags


def render_prototype(proto: CPrototype) -> str:
    if proto.is_argv_form:
        return f"CAMLprim value {proto.c_name}(value *argv, int argn);"
    params = ", ".join(
        f"{PARAM_SPELLING[p]} arg{i + 1}" for i, p in enumerate(proto.params)
    )
    ret = PARAM_SPELLING[proto.returns]
    return f"CAMLprim {ret} {proto.c_name}({params});"


def render_header(decls) -> str:
    """The whole prototype header, declarations in input order."""
    lines = [HEADER_PREAMBLE]
    for decl in decls:
        protos, _ = prototypes_for(decl)
        for proto in protos:
            lines.append(render_prototype(proto) + "\n")
    return "".join(lines)
