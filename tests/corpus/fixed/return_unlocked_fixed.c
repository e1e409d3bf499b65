#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/custom.h>

static inline xc_interface *xch_of_val(value v)
{ /* dereference the OCaml value while the runtime lock is held */
    xc_interface *xch = *(xc_interface **)Data_custom_val(v);
    return xch;
}

CAMLprim value stub_xc_domain_pause(value xch_val, value domid)
{
    CAMLparam2(xch_val, domid);
    xc_interface *xch = xch_of_val(xch_val);
    uint32_t c_domid = Int_val(domid);
    int result;

    caml_enter_blocking_section();
    result = xc_domain_pause(xch, c_domid);
    caml_leave_blocking_section(); /* retake the lock on every path */

    if (result < 0)
        CAMLreturn(Val_false);
    CAMLreturn(Val_true);
}
