#include <caml/mlvalues.h>
#include <caml/memory.h>

struct mmap_interface {
    void *addr;
    int len;
};

CAMLprim value stub_map_foreign_range(value xch, value dom, value size, value mfn)
{
    CAMLparam4(xch, dom, size, mfn);
    CAMLlocal1(result);
    struct mmap_interface *intf;
    void *ptr;
    int len;
    unsigned long c_mfn;

    len = Int_val(size);
    c_mfn = Int_val(mfn);

    /* allocate memory for a C structure, wrap it in an abstract OCaml value */
    result = caml_alloc(Wsize_bsize(sizeof(struct mmap_interface)),
                   Abstract_tag);

    caml_enter_blocking_section(); /* release OCaml runtime/domain lock */
    /* correct: store the result in a temporary C variable */
    ptr = xc_map_foreign_range(xch, Int_val(dom), len, PROT_READ|PROT_WRITE, c_mfn);
    caml_leave_blocking_section(); /* reacquire OCaml runtime/domain lock */
    if (!ptr)
        caml_failwith("xc_map_foreign_range error");

    /* correct: the pointer into the OCaml value is derived under the lock */
    intf = Data_abstract_val(result);

    /* correct: store data in the abstract OCaml value with the lock held */
    *intf = (struct mmap_interface){ ptr, len };

    CAMLreturn(result);
}
