#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/custom.h>

static inline xc_interface *xch_of_val(value v)
{ /* wrapper to dereference an OCaml value and read out the C pointer */
    xc_interface *xch = *(xc_interface **)Data_custom_val(v);
    return xch;
}

CAMLprim value stub_xc_domain_create(value xch_val, value wanted_domid, value config)
{
    CAMLparam3(xch_val, wanted_domid, config);
    CAMLlocal2(l, arch_domconfig);
    uint32_t domid;
    xc_domain_config_t cfg;
    int result;
    /* dereference the OCaml value while still holding the runtime lock */
    xc_interface *xch = xch_of_val(xch_val);

    caml_enter_blocking_section();
    /* correct: no OCaml value is dereferenced here */
    result = xc_domain_create(xch, &domid, &cfg);
    caml_leave_blocking_section();

    if (result < 0)
        failwith_xc(xch);

    CAMLreturn(Val_int(domid));
}
