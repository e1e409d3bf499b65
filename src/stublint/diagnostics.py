"""Diagnostic records shared by every check.

One finding renders as one line:

    file:line:col: severity: RULE_ID: message

Severities are plain strings ("error", "warning", "note") so they map onto
SARIF levels without translation.
"""

from __future__ import annotations

from . import Slotted

ERROR = "error"
WARNING = "warning"
NOTE = "note"

# Rule vocabulary.  The dict order here is the order of the SARIF rules array.
RULES = {
    "ARITY_MISMATCH": "C stub parameter count disagrees with the arity of the"
    " OCaml external declaration",
    "VOID_STUB": "C stub takes no parameters but OCaml passes at least one"
    " argument (unit included)",
    "VALUE_DEREF_UNLOCKED": "OCaml value dereferenced without holding the"
    " runtime lock",
    "RUNTIME_CALL_UNLOCKED": "OCaml runtime function called without holding"
    " the runtime lock",
    "DERIVED_PTR_STALE": "pointer derived from an OCaml value used after a"
    " point where the GC may have moved the value",
    "MISSING_CAMLPARAM": "stub with value parameters or locals does not begin"
    " with a CAMLparam macro",
    "CAMLPARAM_ARITY": "CAMLparam macros register a different number of"
    " values than the stub receives",
    "NAKED_POINTER": "even constant stored into a value; the garbage"
    " collector would follow it as a pointer",
    "UNBALANCED_LOCK": "a call that releases the runtime lock (any"
    " releases_lock summary line, caml_enter_blocking_section among them) or"
    " acquires it (any acquires_lock line) does not match the lock state at"
    " this point, or a stub returns to OCaml without the runtime lock",
    "UNSUPPORTED_CONSTRUCT": "construct outside the analyzed C or OCaml"
    " subset",
    "NOTE": "informational note",
}


class Diagnostic(Slotted):
    """Equal to another with the same fields, so lists of findings compare."""

    rule_id: str
    severity: str
    file: str
    line: int
    column: int
    message: str
    # Optional (file, line, column, message) tuples pointing at the other
    # half of a cross-file finding (e.g. the OCaml declaration for an arity
    # mismatch reported on the C definition).
    related: tuple
    __slots__ = tuple(__annotations__)

    def __init__(self, rule_id, severity, file, line, column, message, related=()):
        self.rule_id, self.severity, self.file = rule_id, severity, file
        self.line, self.column, self.message = line, column, message
        self.related = related

    def __eq__(self, other):  # defining it leaves the class unhashable
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def render(self) -> str:
        return (
            f"{self.file}:{self.line}:{self.column}: {self.severity}:"
            f" {self.rule_id}: {self.message}"
        )


def sort_key(diag: Diagnostic):
    return (diag.file, diag.line, diag.column, diag.rule_id, diag.message)


def normalize(diags) -> list[Diagnostic]:
    """Sort findings and drop duplicates sharing (rule, file, line).

    One source line can trigger the same rule through several expressions
    (two stale dereferences in one call, say); reporting it once is enough.
    """
    out = []
    seen = set()
    for diag in sorted(diags, key=sort_key):
        key = (diag.rule_id, diag.file, diag.line)
        if key in seen:
            continue
        seen.add(key)
        out.append(diag)
    return out
