#include <caml/mlvalues.h>
#include <caml/memory.h>

CAMLprim value stub_xc_domain_assign_device(value xch, value domid, value desc,
                                            value rflag)
{
    CAMLparam4(xch, domid, desc, rflag);
    /* ... */
    CAMLreturn(Val_unit);
}
