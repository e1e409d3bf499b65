#include <caml/mlvalues.h>
#include <caml/memory.h>

CAMLprim value stub_xc_domain_assign_device(value xch, value domid, value desc)
{
    CAMLparam3(xch, domid, desc);
    /* ... */
    CAMLreturn(Val_unit);
}
