"""Static checks for hand-written OCaml-to-C primitive stubs.

The package parses `external` declarations on the OCaml side, a pragmatic
subset of C on the stub side, and cross-checks the two: arity agreement,
runtime-lock discipline around blocking sections, pointers derived from
OCaml values that go stale across allocation points, CAMLparam registration
and constants stored into `value` slots that the GC would chase as pointers.
It can also emit a prototype header and a thread-per-primitive C harness for
downstream whole-program analyzers.
"""

__version__ = "0.1.0"


class Slotted:
    """Base of the package's records: plain classes with a written-out
    `__init__`, whose repr names each slot along the MRO.

    A record lists its fields as bare annotations and then sets
    `__slots__ = tuple(__annotations__)`, so that the two cannot drift
    apart.  Under `from __future__ import annotations`, which every module
    that defines a record has, `__annotations__` is a name in the class
    body.
    """

    __slots__ = ()

    def __repr__(self):
        mro = reversed(type(self).__mro__)
        names = [name for cls in mro for name in vars(cls).get("__slots__", ())]
        items = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__name__}({items})"
