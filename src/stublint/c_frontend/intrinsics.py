"""Names with special meaning inside stub code.

The names in MACRO_NAMES are macros from the OCaml headers, not real
functions, so `analysis.solve_function` never looks one up in the summary
table: no summary line can make one release the lock, collect, or end the
path.  The constant table doubles as the source of truth for the
naked-pointer check.
"""

from __future__ import annotations

CAMLPARAM = {f"CAMLparam{i}": i for i in range(6)}
CAMLXPARAM = {f"CAMLxparam{i}": i for i in range(1, 6)}
CAMLLOCAL = {f"CAMLlocal{i}": i for i in range(1, 6)}
CAMLRETURN = frozenset({"CAMLreturn", "CAMLreturn0", "CAMLreturnT"})

# Address derivation into an OCaml block's payload; not itself a dereference.
DATA_DERIVE = frozenset({"Data_custom_val", "Data_abstract_val"})

# Macros that do read or write the OCaml heap.
FIELD_READ = "Field"
FIELD_WRITE = "Store_field"
STRING_DEREF = frozenset({"String_val", "Bytes_val"})
# Reads of a block's header or of an unboxed payload, and the one store
# into a float array; each dereferences its first argument.
BLOCK_DEREF = frozenset(
    {
        "Double_val",
        "Double_field",
        "Store_double_field",
        "Int32_val",
        "Int64_val",
        "Nativeint_val",
        "Tag_val",
        "Wosize_val",
    }
)

# Pure bit twiddling between the tagged and untagged worlds; these never
# touch the heap, so they are never dereferences.
ARITHMETIC = frozenset(
    {
        "Int_val",
        "Long_val",
        "Bool_val",
        "Val_int",
        "Val_long",
        "Val_bool",
        "Val_unit",
        "Val_true",
        "Val_false",
        "Val_emptylist",
        "Is_block",
        "Is_long",
    }
)

# Runtime entry points whose result is a fresh OCaml value.  They are real
# calls (the caml_* summary applies); listed here only so the value tracker
# knows the result classification.
ALLOC_CALLS = frozenset(
    {
        "caml_alloc",
        "caml_alloc_small",
        "caml_alloc_tuple",
        "caml_alloc_string",
        "caml_alloc_initialized_string",
        "caml_alloc_custom",
        "caml_alloc_custom_mem",
        "caml_copy_string",
        "caml_copy_double",
        "caml_copy_int32",
        "caml_copy_int64",
        "caml_copy_nativeint",
    }
)

# Macro constants with a known numeric value (OCaml's uniform encoding:
# immediates are 2k+1, so anything even is a pointer as far as the GC is
# concerned).
CONSTANTS = {
    "Tag_cons": 0,
    "Val_emptylist": 1,
    "Val_unit": 1,
    "Val_false": 1,
    "Val_true": 3,
    "NULL": 0,
}

# Names excluded from runtime-call/summary treatment.
MACRO_NAMES = (
    frozenset(CAMLPARAM)
    | frozenset(CAMLXPARAM)
    | frozenset(CAMLLOCAL)
    | CAMLRETURN
    | DATA_DERIVE
    | {FIELD_READ, FIELD_WRITE}
    | STRING_DEREF
    | BLOCK_DEREF
    | ARITHMETIC
    | {"Wsize_bsize", "Bsize_wsize"}
)
