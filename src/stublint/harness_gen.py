"""Emits a pthread harness that drives every primitive concurrently.

Each C symbol gets one thread entry that takes the modeled runtime lock,
calls the primitive with nondeterministic arguments and unlocks; main
spawns all of them at once so an external race analyzer sees the stubs
competing for the lock.  The output is plain text for other tools; nothing
here compiles or runs it.
"""

from __future__ import annotations

from .header_gen import (
    C_DOUBLE,
    C_INT32,
    C_INT64,
    C_INTNAT,
    CAML_VALUE,
    PARAM_SPELLING,
    prototypes_for,
)

LOCK_NAME = "__VERIFIER_ocaml_runtime_lock"

# the nondeterministic source of each parameter category, in the order the
# harness declares them; PARAM_SPELLING spells their C return types
NONDET = {
    CAML_VALUE: "__VERIFIER_nondet_value",
    C_DOUBLE: "__VERIFIER_nondet_double",
    C_INT32: "__VERIFIER_nondet_int32",
    C_INT64: "__VERIFIER_nondet_int64",
    C_INTNAT: "__VERIFIER_nondet_intnat",
}

_PRELUDE = (
    "/* AUTOGENERATED FILE, DO NOT EDIT */\n"
    "#include <pthread.h>\n"
    "#include <stddef.h>\n"
    "#include <stdint.h>\n"
    "#include <caml/mlvalues.h>\n"
)


def _caller(decl, proto) -> list[str]:
    name = proto.c_name
    lines = [f"static void *__caller_{name}(void *arg)", "{"]
    if proto.is_argv_form:
        lines.append(f"    value argv[{decl.arity}];")
        lines.append("    (void) arg;")
        for i in range(decl.arity):
            lines.append(f"    argv[{i}] = {NONDET[CAML_VALUE]}();")
        call = f"{name}(argv, {decl.arity})"
    else:
        lines.append("    (void) arg;")
        args = ", ".join(f"{NONDET[p]}()" for p in proto.params)
        call = f"{name}({args})"
    lines.append(f"    pthread_mutex_lock(&{LOCK_NAME});")
    lines.append(f"    {call};")
    lines.append(f"    pthread_mutex_unlock(&{LOCK_NAME});")
    lines.append("    return NULL;")
    lines.append("}")
    return lines


def generate_main(decls) -> str:
    """The whole harness file; callers in declaration order."""
    callers: list[tuple[object, object]] = []  # (decl, proto) per C symbol
    seen: set[str] = set()
    used_kinds: set[str] = {CAML_VALUE}
    for decl in decls:
        protos, _ = prototypes_for(decl)
        for proto in protos:
            if proto.c_name in seen:
                continue
            seen.add(proto.c_name)
            callers.append((decl, proto))
            for p in proto.params:
                if p in NONDET:
                    used_kinds.add(p)

    out = [_PRELUDE, "\n"]
    for kind, fn in NONDET.items():
        if kind in used_kinds:
            out.append(f"extern {PARAM_SPELLING[kind]} {fn}(void);\n")
    out.append("\n")
    out.append(f"pthread_mutex_t {LOCK_NAME} = PTHREAD_MUTEX_INITIALIZER;\n")

    for decl, proto in callers:
        out.append("\n")
        out.extend(line + "\n" for line in _caller(decl, proto))

    out.append("\n")
    out.append("int main(void)\n{\n")
    if callers:
        out.append(f"    pthread_t threads[{len(callers)}];\n")
        for i, (_, proto) in enumerate(callers):
            out.append(
                f"    pthread_create(&threads[{i}], NULL,"
                f" __caller_{proto.c_name}, NULL);\n"
            )
        for i in range(len(callers)):
            out.append(f"    pthread_join(threads[{i}], NULL);\n")
    out.append("    return 0;\n}\n")
    return "".join(out)
