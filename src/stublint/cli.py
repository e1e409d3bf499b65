"""Command-line driver: cross-checks .ml externals against .c stubs and
runs every analysis, with optional header/harness generation.

Exit status: 0 clean, 1 findings (errors, or warnings under --strict),
2 unusable input (I/O failure, fatal parse error, bad summaries file).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Iterable

from . import harness_gen, header_gen, ml_frontend
from .analysis import solve_function
from .c_frontend import (
    CLexError,
    PreprocessError,
    build_cfg,
    parse_tokens,
    preprocess_local,
)
from .diagnostics import ERROR, NOTE, WARNING, Diagnostic, RULES, normalize
from .lock_analysis import SummaryError, SummaryTable, load_summaries
from .sarif import sarif
from .value_safety import check_camlparam

DEFAULT_SUMMARIES = "stublint-summaries.txt"


class FatalError(Exception):
    """Input that cannot be analyzed at all (distinct from lint findings)."""


# -- arity cross-check ------------------------------------------------------


def _is_argv_pair(params) -> bool:
    if len(params) != 2:
        return False
    (_, first), (_, second) = params
    return (
        first.base == "value"
        and first.pointers == 1
        and second.base == "int"
        and second.pointers == 0
    )


def _check_definition(decl, fn, proto) -> Diagnostic | None:
    nparams = len(fn.params)
    rule = "ARITY_MISMATCH"
    if proto.is_argv_form:
        if _is_argv_pair(fn.params):
            return None
        message = (
            f"'{fn.name}' implements an arity-{decl.arity} external and"
            " must use the (value *argv, int argn) form"
        )
    elif nparams == 0 and decl.arity == 1:
        rule = "VOID_STUB"
        message = (
            f"'{fn.name}' takes no parameters, but OCaml always passes"
            " an argument (unit is the value 1)"
        )
    elif nparams == 0:
        message = (
            f"'{fn.name}' takes no parameters but external"
            f" '{decl.ocaml_name}' has arity {decl.arity}"
        )
    elif nparams != decl.arity:
        message = (
            f"'{fn.name}' takes {nparams} parameters but external"
            f" '{decl.ocaml_name}' has arity {decl.arity}"
        )
    else:
        return None
    file, line, col = decl.source_loc
    related = ((file, line, col, f"external '{decl.ocaml_name}' declared here"),)
    return Diagnostic(rule, ERROR, fn.file, fn.line, fn.col, message, related)


def check_arity(decls, units) -> list[Diagnostic]:
    """Each external against the definitions of its C symbols.

    The prototypes, and the error for a declaration OCaml cannot compile,
    come from `header_gen.prototypes_for`.  A symbol named twice is checked
    once, against its first prototype, the bytecode one.
    """
    definitions = {}
    for unit in units:
        for fn in unit.functions:
            definitions.setdefault(fn.name, fn)
    diags = []
    for decl in decls:
        protos, problems = header_gen.prototypes_for(decl)
        diags.extend(problems)
        file, line, col = decl.source_loc
        for proto in protos:
            symbol = proto.c_name
            if proto.flavor == "native" and symbol == decl.byte_name:
                continue
            fn = definitions.get(symbol)
            if fn is None:
                if units:
                    diags.append(
                        Diagnostic(
                            "NOTE",
                            NOTE,
                            file,
                            line,
                            col,
                            f"no definition of '{symbol}' in the given C"
                            " files; it may live elsewhere",
                        )
                    )
                continue
            found = _check_definition(decl, fn, proto)
            if found is not None:
                diags.append(found)
    return diags


# -- per-unit analysis ------------------------------------------------------


_REQUIRES_LOCK = frozenset({"requires_lock"})


def _unit_table(unit, base: SummaryTable) -> SummaryTable:
    """Stub-calls-stub: a CAMLprim defined here needs the lock like any
    runtime entry point, unless a summary line names it, even one with
    no effects."""
    own = {
        fn.name: _REQUIRES_LOCK
        for fn in unit.functions
        if fn.is_camlprim and base.lookup(fn.name, None) is None
    }
    return SummaryTable({**base.exact, **own}, base.prefix)


def analyze_unit(unit, base_table: SummaryTable) -> list[Diagnostic]:
    table = _unit_table(unit, base_table)
    diags = list(unit.diagnostics)
    for fn in unit.functions:
        cfg = build_cfg(fn)
        diags.extend(solve_function(cfg, table).found)
        diags.extend(check_camlparam(fn))
    return diags


def _analyze_files(paths, table: SummaryTable) -> list[tuple]:
    """Read, preprocess, parse and analyze each C file of `paths`, in order.

    Each file gives (notes, findings, unit): its preprocessor notes, its
    findings, and its unit with each function's header but not its body,
    which is all `check_arity` reads of it.  A file's tokens are dropped
    once it is parsed, and its bodies once it is analyzed.
    """
    records = []
    for path in paths:
        text = _read(path)
        try:
            pre = preprocess_local(text, path)
            unit = parse_tokens(pre.tokens, path)
        except (PreprocessError, CLexError) as exc:
            raise FatalError(f"{path}: {exc}") from exc
        notes = pre.notes
        del text, pre
        found = analyze_unit(unit, table)
        for fn in unit.functions:
            fn.body = fn.locals = ()
        records.append((notes, found, unit))
    return records


# -- driver ------------------------------------------------------------------


def _read(path: str) -> str:
    """The text of `path`, without the UTF-8 byte-order mark that GCC and
    Clang skip.  It is stripped after decoding, as `utf-8-sig` would, so
    that a byte that cannot be decoded is still named by its offset in
    the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().removeprefix("\ufeff")
    except OSError as exc:
        raise FatalError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise FatalError(
            f"{path}: not UTF-8 text (byte {exc.start} cannot be decoded)"
        ) from exc


def _load_table(summaries_path: str | None) -> SummaryTable:
    text = None
    path = summaries_path
    if path is None and os.path.exists(DEFAULT_SUMMARIES):
        path = DEFAULT_SUMMARIES
    if path is not None:
        text = _read(path)
    try:
        return load_summaries(text)
    except SummaryError as exc:
        raise FatalError(f"{path}: {exc}") from exc


def run(
    paths,
    summaries: str | None = None,
    header_out: str | None = None,
    harness_out: str | None = None,
    strict: bool = False,
    disabled=frozenset(),
    jobs: int = 1,
):
    """Analyze the given files, the C files in up to `jobs` processes.

    Returns (diagnostics, exit_code).  Neither depends on `jobs`, nor does
    the message of a `FatalError`; any other exception that a worker meets
    comes back as a `RuntimeError` that carries its traceback.
    """
    ml_paths = [p for p in paths if p.endswith(".ml")]
    c_paths = [p for p in paths if p.endswith(".c")]
    stray = [p for p in paths if not p.endswith((".ml", ".c"))]
    if stray:
        raise FatalError(f"unsupported input (want .ml or .c): {stray[0]}")

    table = _load_table(summaries)

    # The workers start before the .ml side and the outputs, which this
    # process does meanwhile.  An error is raised in the order of a run in
    # one process: the .ml reads and the writes, then the C files in order.
    own, workers = c_paths, None
    if jobs > 1 and len(c_paths) > 1 and hasattr(os, "fork"):
        from .workers import Workers  # only a run that forks loads it

        workers = Workers(c_paths, jobs, table)
        own = workers.own
    finished = False
    try:
        if workers:
            workers.start()

        diags: list[Diagnostic] = []
        decls = []
        for path in ml_paths:
            found, errors = ml_frontend.parse_ml_externals(_read(path), path)
            decls.extend(found)
            for err in errors:
                diags.append(
                    Diagnostic(
                        "UNSUPPORTED_CONSTRUCT",
                        WARNING,
                        err.file,
                        err.line,
                        err.column,
                        f"external declaration skipped: {err.message}",
                    )
                )

        if header_out is not None:
            _write_output(header_out, header_gen.render_header(decls))
        if harness_out is not None:
            _write_output(harness_out, harness_gen.generate_main(decls))

        records = _analyze_files(own, table)
        if workers:
            records.extend(workers.results())
        finished = True
    finally:
        if workers:
            workers.reap(finished)

    # every file's notes, then every file's findings: `normalize` keeps the
    # first of two findings with one key, so this is the order of a run in
    # one process
    for notes, _found, _unit in records:
        diags.extend(notes)
    for _notes, found, _unit in records:
        diags.extend(found)
    units = [unit for _notes, _found, unit in records]
    diags.extend(check_arity(decls, units))

    diags = [d for d in normalize(diags) if d.rule_id not in disabled]

    worst = 0
    for diag in diags:
        if diag.severity == ERROR or (strict and diag.severity == WARNING):
            worst = 1
            break
    return diags, worst


def _write_output(path: str, text: str):
    _write_pieces(path, (text,))


def _write_pieces(path: str, pieces: Iterable[str]):
    """Write `pieces` one after another to `path`, or to stdout for `-`."""
    if path == "-":
        sys.stdout.writelines(pieces)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise FatalError(f"cannot write {path}: {exc.strerror}") from exc


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_rule_flag(values) -> frozenset:
    disabled = set()
    for item in values or ():
        rule, sep, state = item.partition("=")
        if not sep or state != "off" or rule not in RULES:
            raise FatalError(
                f"bad --rule value {item!r} (expected '<RULE_ID>=off')"
            )
        disabled.add(rule)
    return frozenset(disabled)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stublint",
        description="Cross-check OCaml externals against their C stubs and"
        " lint the stubs for runtime-lock, GC and naked-pointer hazards.",
    )
    parser.add_argument(
        "paths",
        nargs="+",
        metavar="FILE",
        help=".ml files with external declarations and .c stub files",
    )
    parser.add_argument(
        "--summaries",
        metavar="FILE",
        help="function summary file (default: ./stublint-summaries.txt"
        " if present)",
    )
    parser.add_argument(
        "--sarif", metavar="FILE", help="also write findings as SARIF 2.1.0"
    )
    parser.add_argument(
        "--header-out",
        metavar="FILE",
        help="write a prototype header for the externals ('-' for stdout)",
    )
    parser.add_argument(
        "--harness-out",
        metavar="FILE",
        help="write a pthread test harness ('-' for stdout)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures for the exit status",
    )
    parser.add_argument(
        "--rule",
        action="append",
        metavar="ID=off",
        help="disable a rule (repeatable)",
    )
    args = parser.parse_args(argv)

    # The pipeline makes no reference cycles (tests/test_cycles.py checks),
    # so reference counting frees all it allocates, and the cyclic collector
    # would only rescan the growing token list, AST and CFG for nothing.
    # Pause it for the run and give the caller back the state it had.
    collecting = gc.isenabled()
    gc.disable()
    try:
        disabled = _parse_rule_flag(args.rule)
        diags, status = run(
            args.paths,
            summaries=args.summaries,
            header_out=args.header_out,
            harness_out=args.harness_out,
            strict=args.strict,
            disabled=disabled,
            jobs=_available_cpus(),
        )
        if args.sarif is not None:
            _write_pieces(args.sarif, sarif(diags))
        for diag in diags:
            print(diag.render())
        return status
    except FatalError as exc:
        print(f"stublint: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
