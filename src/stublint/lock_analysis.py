"""Must-analysis of the OCaml runtime-lock state across each stub.

The runtime behaves like one global mutex: a stub is entered with the lock
held, `caml_enter_blocking_section` releases it, `caml_leave_blocking_section`
takes it back.  What each runtime function does, those two included, is a
line of the summary table: built in (`BUILTIN_SUMMARIES`) or loaded from a
plain-text file, so no runtime headers are needed.  `load_summaries` reads
each line straight into the `SummaryTable`, built-ins first.  A runtime
macro (`intrinsics`) is no function, and the product step never looks one
up.

The analysis is the lock lattice plus `step_call`, which moves the state
over one call by the effects the step looked up for it, and names the
finding for an enter or leave that the state before it does not match.
`analysis.solve_function` runs it as the lock component of the one product
solve per function.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .c_frontend.intrinsics import ENTER_BLOCKING, LEAVE_BLOCKING
from .diagnostics import ERROR, WARNING


class LockState(enum.Enum):
    BOTTOM = "unreached"
    HELD = "held"
    RELEASED = "released"
    UNKNOWN = "unknown"

    def __repr__(self):
        return f"LockState.{self.name}"


def join_lock(a: LockState, b: LockState) -> LockState:
    if a is b:
        return a
    if a is LockState.BOTTOM:
        return b
    if b is LockState.BOTTOM:
        return a
    return LockState.UNKNOWN


def lock_leq(a: LockState, b: LockState) -> bool:
    return a is b or a is LockState.BOTTOM or b is LockState.UNKNOWN


LOCK_LATTICE_HEIGHT = 2  # Bottom -> Held/Released -> Unknown


EFFECT_NAMES = frozenset(
    {
        "acquires_lock",
        "releases_lock",
        "requires_lock",
        "no_lock_needed",
        "may_gc",
        "noreturn",
    }
)

BUILTIN_SUMMARIES = """\
# Preloaded model of the OCaml runtime.
caml_enter_blocking_section: releases_lock, may_gc
caml_leave_blocking_section: acquires_lock
caml_release_runtime_system: releases_lock, may_gc
caml_acquire_runtime_system: acquires_lock
caml_*: requires_lock, may_gc
caml_stat_free: no_lock_needed
# The raise helpers `caml/fail.h` marks CAMLnoreturn.  caml_raise_if_exception
# returns when its argument is not an exception, so it is not one of them.
caml_failwith: requires_lock, noreturn
caml_failwith_value: requires_lock, may_gc, noreturn
caml_invalid_argument: requires_lock, may_gc, noreturn
caml_invalid_argument_value: requires_lock, may_gc, noreturn
caml_raise: requires_lock, may_gc, noreturn
caml_raise_constant: requires_lock, may_gc, noreturn
caml_raise_with_arg: requires_lock, may_gc, noreturn
caml_raise_with_args: requires_lock, may_gc, noreturn
caml_raise_with_string: requires_lock, may_gc, noreturn
caml_raise_out_of_memory: requires_lock, may_gc, noreturn
caml_raise_stack_overflow: requires_lock, may_gc, noreturn
caml_raise_sys_error: requires_lock, may_gc, noreturn
caml_raise_end_of_file: requires_lock, may_gc, noreturn
caml_raise_zero_divide: requires_lock, may_gc, noreturn
caml_raise_not_found: requires_lock, may_gc, noreturn
caml_raise_sys_blocked_io: requires_lock, may_gc, noreturn
caml_array_bound_error: requires_lock, may_gc, noreturn
"""


class SummaryError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


@dataclass
class SummaryTable:
    """Effects by exact callee name, and by name prefix (`caml_*`)."""

    exact: dict[str, frozenset[str]] = field(default_factory=dict)
    prefix: dict[str, frozenset[str]] = field(default_factory=dict)

    def lookup(self, name: str, default=frozenset()) -> frozenset[str]:
        """Effects for a callee: exact match first, then longest prefix,
        and `default` when no line matches.  The product step never asks
        for a runtime macro (`Field`, `CAMLparam1`, ...), so no line
        reaches one, whatever the summaries say."""
        hit = self.exact.get(name)
        if hit is not None:
            return hit
        best = None
        best_len = -1
        for pattern, effects in self.prefix.items():
            if len(pattern) > best_len and name.startswith(pattern):
                best = effects
                best_len = len(pattern)
        return best if best is not None else default

    # Read only by tests and perfbench/spans.py; the step reads `noreturn`
    # from the effects it looked up.
    def noreturn(self, name: str) -> bool:
        return "noreturn" in self.lookup(name)


def load_summaries(text: str | None = None) -> SummaryTable:
    """The table of the built-ins, then of the lines of `text`, which extend
    or override them; a bad line raises SummaryError with its number in its
    own text."""
    table = SummaryTable()
    for source in (BUILTIN_SUMMARIES, text or ""):
        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise SummaryError("expected '<name>: effect, ...'", lineno)
            name, _, effect_part = line.partition(":")
            name = name.strip()
            if not name or any(ch.isspace() for ch in name):
                raise SummaryError(f"bad function name {name!r}", lineno)
            patterns = table.exact
            if name.endswith("*"):
                patterns = table.prefix
                name = name[:-1]
            effects = set()
            for word in effect_part.split(","):
                word = word.strip()
                if not word:
                    continue
                if word not in EFFECT_NAMES:
                    raise SummaryError(f"unknown effect {word!r}", lineno)
                effects.add(word)
            if "acquires_lock" in effects and "releases_lock" in effects:
                raise SummaryError(
                    f"{name!r} cannot both acquire and release the lock", lineno
                )
            patterns[name] = frozenset(effects)
    return table


# -- transfer ---------------------------------------------------------------


# The finding for a blocking-section call in each state it does not match.
_UNBALANCED = {
    (call, state): ("UNBALANCED_LOCK", severity, f"{call} but the runtime lock {how}")
    for call, state, severity, how in (
        (ENTER_BLOCKING, LockState.RELEASED, ERROR, "is already released"),
        (ENTER_BLOCKING, LockState.UNKNOWN, WARNING, "may already be released"),
        (LEAVE_BLOCKING, LockState.HELD, ERROR, "is still held"),
        (LEAVE_BLOCKING, LockState.UNKNOWN, WARNING, "may still be held"),
    )
}


def step_call(name: str, state: LockState, effects: frozenset[str]):
    """Lock state after a call with these effects, plus (rule, severity,
    message) when the call is an enter/leave that moves the lock from a
    state it does not match."""
    if "releases_lock" in effects:
        after = LockState.RELEASED
    elif "acquires_lock" in effects:
        after = LockState.HELD
    else:
        return state, None
    return after, _UNBALANCED.get((name, state))


# -- shims for perfbench/spans.py over analysis.solve_function; ROADMAP item 1
# deletes them.  Each is the product solve or an empty result, never a second
# analysis.


def solve(cfg, table: SummaryTable):
    from .analysis import solve_function  # analysis imports this module

    return solve_function(cfg, table)


def collect_lock_diagnostics(cfg, fixpoint, table: SummaryTable):
    return fixpoint.found
