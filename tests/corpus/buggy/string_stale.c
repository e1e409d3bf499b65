#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>

/* the first byte of a string, in a fresh one-byte string */
CAMLprim value stub_string_head(value s)
{
    CAMLparam1(s);
    CAMLlocal1(r);
    const char *p = String_val(s); /* a C pointer into the OCaml string */

    r = caml_alloc_string(1); /* may run the GC, which may move s */
    Bytes_val(r)[0] = p[0]; /* BUG: p may still point at the old copy of s */

    CAMLreturn(r);
}
