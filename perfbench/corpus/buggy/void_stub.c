#include <caml/mlvalues.h>
#include <caml/memory.h>

/* cast OCaml 'value' to C pointer */
#define _H(__h) ((xenevtchn_handle *)(__h))

CAMLprim value stub_eventchn_init(void)
{
    CAMLparam0();
    CAMLlocal1(result);
    xenevtchn_handle *xce;

    caml_enter_blocking_section(); /* releases the OCaml runtime/domain lock */
    xce = xenevtchn_open(NULL, 0); /* allocates a C object */
    caml_leave_blocking_section(); /* reacquires the OCaml runtime/domain lock */

    if (xce == NULL)
        caml_failwith("open failed");

    result = (value)xce; /* casts a C pointer to an OCaml 'value' */
    CAMLreturn(result);
}
