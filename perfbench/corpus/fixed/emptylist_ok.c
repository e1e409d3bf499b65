#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>

CAMLprim value stub_get_arch_caps(value unit)
{
    CAMLparam1(unit);
    CAMLlocal2(arch_cap_flags, arch_obj);
    int tag;

    tag = 1; /* tag x86 */

    arch_obj = Val_emptylist; /* correct: the empty list is the immediate 1 */

    arch_cap_flags = caml_alloc_small(1, tag);
    Store_field(arch_cap_flags, 0, arch_obj);

    CAMLreturn(arch_cap_flags);
}
