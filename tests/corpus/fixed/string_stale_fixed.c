#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>

/* the first byte of a string, in a fresh one-byte string */
CAMLprim value stub_string_head(value s)
{
    CAMLparam1(s);
    CAMLlocal1(r);
    const char *p;

    r = caml_alloc_string(1); /* may run the GC, which may move s */
    p = String_val(s); /* correct: derived after the last GC point */
    Bytes_val(r)[0] = p[0];

    CAMLreturn(r);
}
