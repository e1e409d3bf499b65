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
from collections import namedtuple
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


# the (base, pointers) of the parameters of the (value *argv, int argn) form
_ARGV_PAIR = (("value", 1), ("int", 0))


def _header(fn) -> tuple:
    """What the arity check reads of a function: (name, file, line, col,
    the (base, pointers) of each parameter)."""
    params = tuple((t.base, t.pointers) for _, t in fn.params)
    return (fn.name, fn.file, fn.line, fn.col, params)


def _check_definition(decl, fn: tuple, proto) -> Diagnostic | None:
    name, fn_file, fn_line, fn_col, params = fn
    nparams = len(params)
    rule = "ARITY_MISMATCH"
    if proto.is_argv_form:
        if params == _ARGV_PAIR:
            return None
        message = (
            f"'{name}' implements an arity-{decl.arity} external and"
            " must use the (value *argv, int argn) form"
        )
    elif nparams == 0 and decl.arity == 1:
        rule = "VOID_STUB"
        message = (
            f"'{name}' takes no parameters, but OCaml always passes"
            " an argument (unit is the value 1)"
        )
    elif nparams == 0:
        message = (
            f"'{name}' takes no parameters but external"
            f" '{decl.ocaml_name}' has arity {decl.arity}"
        )
    elif nparams != decl.arity:
        message = (
            f"'{name}' takes {nparams} parameters but external"
            f" '{decl.ocaml_name}' has arity {decl.arity}"
        )
    else:
        return None
    file, line, col = decl.source_loc
    related = ((file, line, col, f"external '{decl.ocaml_name}' declared here"),)
    return Diagnostic(rule, ERROR, fn_file, fn_line, fn_col, message, related)


def check_arity(decls, units) -> list[Diagnostic]:
    """Each external against the definitions of its C symbols in `units`,
    parsed C files, as a replay of the pipeline holds them; `run` checks
    the headers its records carry."""
    headers = [_header(fn) for unit in units for fn in unit.functions]
    return _check_headers(decls, headers, bool(units))


def _check_headers(decls, headers, c_given: bool) -> list[Diagnostic]:
    """Each external against the definitions of its C symbols, given as
    `_header`s; a symbol with none gets a note when `c_given`, when any C
    file was given.

    The prototypes, and the error for a declaration OCaml cannot compile,
    come from `header_gen.prototypes_for`.  A symbol named twice is checked
    once, against its first prototype, the bytecode one.
    """
    definitions = {}
    for fn in headers:
        definitions.setdefault(fn[0], fn)  # by name
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
                if c_given:
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
    """Stub-calls-stub: a CAMLprim defined in the unit's file needs the lock
    like any runtime entry point, unless a summary line names it, even one
    with no effects.  `unit.camlprims` names every CAMLprim of the file,
    one whose body does not parse too, in every part of a cut file."""
    own = {
        name: _REQUIRES_LOCK
        for name in unit.camlprims
        if base.lookup(name, None) is None
    }
    return SummaryTable({**base.exact, **own}, base.prefix)


def analyze_unit(unit, base_table: SummaryTable) -> list[Diagnostic]:
    """The findings of the functions of `unit`."""
    table = _unit_table(unit, base_table)
    diags = list(unit.diagnostics)
    for fn in unit.functions:
        cfg = build_cfg(fn)
        diags.extend(solve_function(cfg, table).found)
        diags.extend(check_camlparam(fn))
    return diags


# What `_analyze_files` gives of one part of a C file; the records of a
# file's parts, in order, are the record of the whole file.  `found` holds
# the preprocessor's notes, in the part that begins at line 0, then the
# parser's diagnostics and the analyses' findings; `headers` holds the
# `_header` of each function.
Record = namedtuple("Record", "found headers")


def _analyze_files(parts, table: SummaryTable) -> list[Record]:
    """Read, preprocess, parse and analyze each part of a C file in `parts`,
    in order, into its `Record`.

    A part is (path, first, last): the top-level items of the file at
    `path` that begin on a line from `first` up to, but not including,
    `last`, or to the end when `last` is None (see `parse_tokens`).  So
    (path, 0, None) is the whole file.  Each part preprocesses the whole
    file, so a lex or preprocessor error is raised whatever the part, and
    reads the head of every item, so it knows every CAMLprim of the file.
    A file's tokens are dropped once it is parsed, and its functions once
    they are analyzed.
    """
    records = []
    for path, first, last in parts:
        text = _read(path)
        try:
            pre = preprocess_local(text, path)
            unit = parse_tokens(pre.tokens, path, first, last)
        except (PreprocessError, CLexError) as exc:
            raise FatalError(f"{path}: {exc}") from exc
        found = pre.notes if first == 0 else []
        del text, pre
        found += analyze_unit(unit, table)
        records.append(Record(found, [_header(fn) for fn in unit.functions]))
        del unit
    return records


def _parts(c_paths, jobs: int) -> list[tuple]:
    """The C files as the parts `_analyze_files` takes: whole files, but a
    lone file cut into up to `jobs` parts of top-level items.

    The k-th cut is at the line after the first line that starts with `}`
    from k/jobs of the text on, and there is none unless another such line
    follows; so a file of one function is not cut, whatever follows its
    `}`.  A file that cannot be read is left whole, for its error to be
    raised in its turn.
    """
    if len(c_paths) != 1 or jobs < 2:
        return [(path, 0, None) for path in c_paths]
    path = c_paths[0]
    try:
        text = _read(path)
    except FatalError:
        return [(path, 0, None)]
    final = text.rfind("\n}")
    lines = [0]
    at = 0
    for k in range(1, jobs):
        brace = text.find("\n}", max(len(text) * k // jobs, at), final)
        if brace < 0:
            break
        at = text.find("\n", brace + 2)
        lines.append(text.count("\n", 0, at + 1) + 1)
    lines.append(None)
    return [(path, first, last) for first, last in zip(lines, lines[1:])]


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

    With more than one C part (see `_parts`), more than one job and `fork`,
    the parts go into the claim queue of `workers.Claims`, whose workers
    start taking claims at once; this process reads the .ml files and
    writes the header and harness first, then takes claims until none is
    left.  Otherwise this process analyzes every part in turn.

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

    # An error is raised in the order of a run in one process: the .ml
    # reads and the writes, then the C files in order.
    jobs = jobs if hasattr(os, "fork") else 1
    parts = _parts(c_paths, jobs)
    claims = None
    if jobs > 1 and len(parts) > 1:
        from .workers import Claims  # only a run that forks loads it

        claims = Claims(parts, table, jobs)
    finished = False
    try:
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

        records = claims.results() if claims else _analyze_files(parts, table)
        finished = True
    finally:
        if claims:
            claims.reap(finished)

    # in any order: `normalize` sorts them, and two findings of a C file
    # with one sort key are equal (tests/test_cli.py checks)
    for rec in records:
        diags.extend(rec.found)
    headers = [fn for rec in records for fn in rec.headers]
    diags.extend(_check_headers(decls, headers, bool(c_paths)))

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
