#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/custom.h>

/* dereference the OCaml value, read the C pointer contained inside */
#define _H(__h) (*((xenevtchn_handle **)Data_custom_val(__h)))

CAMLprim value stub_eventchn_notify(value xce, value port)
{
    CAMLparam2(xce, port);
    int rc;

    caml_enter_blocking_section(); /* releases the OCaml runtime/domain lock */

    /* casts the OCaml value to a C pointer and calls a C function */
    rc = xenevtchn_notify(_H(xce), Int_val(port));

    caml_leave_blocking_section(); /* reacquires the OCaml runtime/domain lock */

    if (rc == -1)
        caml_failwith("evtchn notify failed");

    CAMLreturn(Val_unit);
}
