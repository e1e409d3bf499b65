#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/custom.h>

static struct custom_operations xenevtchn_ops;

/* dereference the OCaml value, read the C pointer contained inside */
#define _H(__h) (*((xenevtchn_handle **)Data_custom_val(__h)))

CAMLprim value stub_eventchn_init(value unit)
{
    CAMLparam1(unit);
    CAMLlocal1(result);
    xenevtchn_handle *xce;

    caml_enter_blocking_section();
    xce = xenevtchn_open(NULL, 0);
    caml_leave_blocking_section();

    if (xce == NULL)
        caml_failwith("open failed");

    /* allocate a custom OCaml block */
    result = caml_alloc_custom(&xenevtchn_ops, sizeof(xce), 0, 1);
    _H(result) = xce; /* store the C pointer inside the OCaml custom block */
    CAMLreturn(result);
}
