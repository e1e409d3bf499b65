#include <caml/mlvalues.h>
#include <caml/memory.h>

struct mmap_interface {
    void *addr;
    int len;
};

CAMLprim value stub_map_foreign_range(value xch_val, value dom, value size, value mfn)
{
    CAMLparam4(xch_val, dom, size, mfn);
    CAMLlocal1(result);
    struct mmap_interface *intf;
    int c_dom;
    unsigned long c_mfn;

    c_dom = Int_val(dom);
    c_mfn = Int_val(mfn);

    /* allocate memory for a C structure, wrap it in an abstract OCaml value */
    result = caml_alloc(Wsize_bsize(sizeof(struct mmap_interface)),
                   Abstract_tag);

    intf = (struct mmap_interface *) result; /* the C pointer now points inside an OCaml value! */
    intf->len = Int_val(size);

    caml_enter_blocking_section(); /* release OCaml runtime/domain lock */
    intf->addr = xc_map_foreign_range(xch_val, c_dom, intf->len, PROT_READ|PROT_WRITE, c_mfn); /* BUG: unsafe 'intf' deref */
    caml_leave_blocking_section(); /* reacquire OCaml runtime/domain lock */

    CAMLreturn(result);
}
