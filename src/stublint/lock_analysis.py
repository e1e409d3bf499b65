"""Must-analysis of the OCaml runtime-lock state across each stub.

The runtime behaves like one global mutex: a stub is entered with the lock
held, `caml_enter_blocking_section` releases it, `caml_leave_blocking_section`
takes it back.  What each runtime function does, those two included, is a
line of the summary table: built in (`BUILTIN_SUMMARIES`) or loaded from a
plain-text file, so no runtime headers are needed.  `load_summaries` reads
each line straight into the `SummaryTable`, built-ins first.  A runtime
macro (`intrinsics`) is no function, and the product step never looks one
up.

The analysis is the lock lattice, `step_call`, which moves the state over
one call by the effects the step looked up for it, and the one table of
lock findings, keyed by (event, lock state).  The events are a call that
releases, acquires or requires the lock, a dereference of an OCaml value
and a return to OCaml; no key holds a callee name, so any `releases_lock`
or `acquires_lock` line is checked for balance as the blocking section is.
`step_call` reads the finding for the effect that moved the lock, and
`analysis.solve_function` judges the other events with `judge_lock` as it
runs the lock component of the one product solve per function.
"""

from __future__ import annotations

import enum

from . import Slotted
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


class SummaryTable(Slotted):
    """Effects by exact callee name, and by name prefix (`caml_*`)."""

    exact: dict[str, frozenset[str]]
    prefix: dict[str, frozenset[str]]
    __slots__ = tuple(__annotations__)

    def __init__(self, exact=None, prefix=None):
        self.exact = {} if exact is None else exact
        self.prefix = {} if prefix is None else prefix

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


# The one table of lock findings: for each event, in each lock state that
# does not allow it, the rule, the severity and a message whose `{}` is the
# callee, the expression dereferenced or the stub.  A state missing from it
# allows the event.
_FINDINGS = {
    (event, state): (rule, severity, message)
    for event, state, rule, severity, message in (
        ("releases_lock", LockState.RELEASED, "UNBALANCED_LOCK", ERROR,
         "{} but the runtime lock is already released"),
        ("releases_lock", LockState.UNKNOWN, "UNBALANCED_LOCK", WARNING,
         "{} but the runtime lock may already be released"),
        ("acquires_lock", LockState.HELD, "UNBALANCED_LOCK", ERROR,
         "{} but the runtime lock is still held"),
        ("acquires_lock", LockState.UNKNOWN, "UNBALANCED_LOCK", WARNING,
         "{} but the runtime lock may still be held"),
        ("requires_lock", LockState.RELEASED, "RUNTIME_CALL_UNLOCKED", ERROR,
         "{} called while the runtime lock is released"),
        ("requires_lock", LockState.UNKNOWN, "RUNTIME_CALL_UNLOCKED", WARNING,
         "{} may be called without the runtime lock held"),
        ("deref", LockState.RELEASED, "VALUE_DEREF_UNLOCKED", ERROR,
         "'{}' dereferences an OCaml value while the runtime lock is released"),
        ("deref", LockState.UNKNOWN, "VALUE_DEREF_UNLOCKED", WARNING,
         "'{}' may dereference an OCaml value without the runtime lock held"),
        ("return", LockState.RELEASED, "UNBALANCED_LOCK", ERROR,
         "'{}' returns to OCaml without the runtime lock"),
        ("return", LockState.UNKNOWN, "UNBALANCED_LOCK", WARNING,
         "'{}' may return to OCaml without the runtime lock"),
    )
}


def judge_lock(event: str, state: LockState, subject: str):
    """(rule, severity, message) for `event` in lock state `state`, the
    message naming `subject`; None when the state allows the event."""
    found = _FINDINGS.get((event, state))
    if found is None:
        return None
    rule, severity, message = found
    return rule, severity, message.format(subject)


def step_call(name: str, state: LockState, effects: frozenset[str]):
    """Lock state after a call with these effects, plus the finding for
    the effect that moved the lock (`releases_lock` or `acquires_lock`)
    when the state before the call does not allow it."""
    if "releases_lock" in effects:
        event, after = "releases_lock", LockState.RELEASED
    elif "acquires_lock" in effects:
        event, after = "acquires_lock", LockState.HELD
    else:
        return state, None
    return after, judge_lock(event, state, name)


# -- shims for perfbench/spans.py over analysis.solve_function; ROADMAP item 1
# deletes them.  Each is the product solve or an empty result, never a second
# analysis.


def solve(cfg, table: SummaryTable):
    from .analysis import solve_function  # analysis imports this module

    return solve_function(cfg, table)


def collect_lock_diagnostics(cfg, fixpoint, table: SummaryTable):
    return fixpoint.found
