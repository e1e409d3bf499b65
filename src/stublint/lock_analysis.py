"""Must-analysis of the OCaml runtime-lock state across each stub.

The runtime behaves like one global mutex: a stub is entered with the lock
held, `caml_enter_blocking_section` releases it, `caml_leave_blocking_section`
takes it back.  Everything else the runtime does is described by summaries,
either built in or loaded from a plain-text file, so no runtime headers are
needed.  A summary never applies to a runtime macro (`intrinsics`).

The analysis is the lock lattice plus `step_call`, which moves the state
over one call and names the finding for an enter or leave that the state
before it does not match.  `analysis.solve_function` runs it as the lock
component of the one product solve per function.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .c_frontend.intrinsics import ENTER_BLOCKING, LEAVE_BLOCKING, is_macro_name
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

# Functions that never return to the stub even without a summary saying so:
# the raise helpers `caml/fail.h` marks CAMLnoreturn.  `caml_raise_if_exception`
# returns when its argument is not an exception, so it is not one of them.
NORETURN_BUILTINS = frozenset(
    {
        "caml_failwith",
        "caml_failwith_value",
        "caml_invalid_argument",
        "caml_invalid_argument_value",
        "caml_raise",
        "caml_raise_constant",
        "caml_raise_with_arg",
        "caml_raise_with_args",
        "caml_raise_with_string",
        "caml_raise_out_of_memory",
        "caml_raise_stack_overflow",
        "caml_raise_sys_error",
        "caml_raise_end_of_file",
        "caml_raise_zero_divide",
        "caml_raise_not_found",
        "caml_raise_sys_blocked_io",
        "caml_array_bound_error",
    }
)

BUILTIN_SUMMARIES = """\
# Preloaded model of the OCaml runtime.
caml_enter_blocking_section: releases_lock
caml_leave_blocking_section: acquires_lock
caml_*: requires_lock, may_gc
caml_stat_free: no_lock_needed
caml_failwith: requires_lock, noreturn
"""


class SummaryError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


@dataclass(slots=True)
class SummaryEntry:
    pattern: str
    is_prefix: bool
    effects: frozenset[str]


@dataclass
class SummaryTable:
    """Effects by exact callee name, and by name prefix (`caml_*`)."""

    exact: dict[str, frozenset[str]] = field(default_factory=dict)
    prefix: dict[str, frozenset[str]] = field(default_factory=dict)

    def lookup(self, name: str, default=frozenset()) -> frozenset[str]:
        """Effects for a callee: exact match first, then longest prefix,
        and `default` when no line matches.  A runtime macro (`Field`,
        `CAMLparam1`, ...) has none, whatever the summaries say."""
        if is_macro_name(name):
            return frozenset()
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

    def noreturn(self, name: str) -> bool:
        return name in NORETURN_BUILTINS or "noreturn" in self.lookup(name)


def parse_summary_lines(text: str) -> list[SummaryEntry]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SummaryError("expected '<name>: effect, ...'", lineno)
        name, _, effect_part = line.partition(":")
        name = name.strip()
        if not name or any(ch.isspace() for ch in name):
            raise SummaryError(f"bad function name {name!r}", lineno)
        is_prefix = name.endswith("*")
        if is_prefix:
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
        entries.append(SummaryEntry(name, is_prefix, frozenset(effects)))
    return entries


def load_summaries(text: str | None = None) -> SummaryTable:
    """Built-ins, optionally extended/overridden by user summary text."""
    table = SummaryTable()
    entries = parse_summary_lines(BUILTIN_SUMMARIES)
    if text is not None:
        entries += parse_summary_lines(text)
    for entry in entries:
        patterns = table.prefix if entry.is_prefix else table.exact
        patterns[entry.pattern] = entry.effects
    return table


# -- transfer ---------------------------------------------------------------


# The lock state each blocking-section call leaves, and the finding for
# the call in each state it does not match.
_BLOCKING = {ENTER_BLOCKING: LockState.RELEASED, LEAVE_BLOCKING: LockState.HELD}
_UNBALANCED = {
    (call, state): ("UNBALANCED_LOCK", severity, f"{call} but the runtime lock {how}")
    for call, state, severity, how in (
        (ENTER_BLOCKING, LockState.RELEASED, ERROR, "is already released"),
        (ENTER_BLOCKING, LockState.UNKNOWN, WARNING, "may already be released"),
        (LEAVE_BLOCKING, LockState.HELD, ERROR, "is still held"),
        (LEAVE_BLOCKING, LockState.UNKNOWN, WARNING, "may still be held"),
    )
}


def step_call(name: str, state: LockState, table: SummaryTable):
    """Lock state after one call, plus (rule, severity, message) when the
    call is an enter/leave that does not match the current state."""
    after = _BLOCKING.get(name)
    if after is not None:
        return after, _UNBALANCED.get((name, state))
    effects = table.lookup(name)
    if "releases_lock" in effects:
        return LockState.RELEASED, None
    if "acquires_lock" in effects:
        return LockState.HELD, None
    return state, None


# -- shims for perfbench/spans.py over analysis.solve_function; ROADMAP item 1
# deletes them.  Each is the product solve or an empty result, never a second
# analysis.


def solve(cfg, table: SummaryTable):
    from .analysis import solve_function  # analysis imports this module

    return solve_function(cfg, table)


def collect_lock_diagnostics(cfg, fixpoint, table: SummaryTable):
    return fixpoint.found
