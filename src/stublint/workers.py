"""The C files of one run in forked worker processes.

The parts of the C files, each a whole file or the top-level items of a
lone file that begin in a range of its lines (see `cli._analyze_files`),
are split into contiguous slices, one per job; `cli.run` loads this module
only when there is more than one part.  The caller analyzes the first slice
itself; each other slice goes to a worker made with `os.fork`, which runs
the same `cli._analyze_files` and sends its records back over a pipe,
marshalled: each finding as the tuple of its fields, and the rest of the
record as it is.  A worker writes nothing to stdout or stderr and leaves by
`os._exit`, so it never flushes, or runs the exit handlers of, a copy of
its parent's state.
"""

from __future__ import annotations

import marshal
import os

from .cli import FatalError, Record, _analyze_files
from .diagnostics import Diagnostic


class Workers:
    """Workers for every slice of `parts` but the first, `own`, which is
    the caller's to analyze."""

    def __init__(self, parts: list[tuple], jobs: int, table):
        n = len(parts)
        count = min(jobs, n)
        slices = [parts[i * n // count : (i + 1) * n // count] for i in range(count)]
        self.own, self.rest = slices[0], slices[1:]
        self.table = table
        self.started = []  # (pid, reader) of rest[0], rest[1], ...

    def start(self):
        """Fork a worker for each slice of `rest`, until the system refuses
        one (too many processes or open files, no memory); the slices left
        over are analyzed by `results`, in this process."""
        for part in self.rest:
            try:
                self.started.append(_start(part, self.table))
            except OSError:
                break

    def results(self) -> list[Record]:
        """The records of the slices of `rest`, in order, once each worker
        has sent them all; raises the first error one of them met."""
        records = []
        for _pid, reader in self.started:
            records.extend(_receive(reader))
        for part in self.rest[len(self.started) :]:
            records.extend(_analyze_files(part, self.table))
        return records

    def reap(self, finished: bool):
        """Wait for every worker.  Unless the run `finished`, kill each
        first: one may still be working, or blocked on a full pipe."""
        if not finished:
            from signal import SIGKILL  # only an error pays for the import
        for pid, reader in self.started:
            reader.close()
            if not finished:
                os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _start(parts: list[tuple], table):
    """Fork a worker that runs `_analyze_files(parts, table)`.  Returns its
    pid and the reading end of the pipe its reply comes back on: the
    records, a `FatalError`'s message, or the traceback of any other
    exception, marshalled."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                records = _analyze_files(parts, table)
                reply = ("records", [_plain(r) for r in records])
            except FatalError as exc:
                reply = ("fatal", str(exc))
            except Exception:
                import traceback

                reply = ("crash", traceback.format_exc())
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(reply))
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _receive(reader) -> list[Record]:
    """The records a worker sent, once it has sent them all; raises the
    error it met instead."""
    try:
        kind, payload = marshal.loads(reader.read())
    except (EOFError, ValueError):
        raise RuntimeError("a worker ended without sending its results") from None
    if kind == "fatal":
        raise FatalError(payload)
    if kind == "crash":
        raise RuntimeError(f"a worker failed:\n{payload}")
    return [_record(plain) for plain in payload]


# -- records in the types `marshal` carries ----------------------------------


def _plain(record: Record) -> tuple:
    found, *rest = record
    return ([_fields(d) for d in found], *rest)


def _record(plain: tuple) -> Record:
    found, *rest = plain
    return Record([Diagnostic(*d) for d in found], *rest)


def _fields(d: Diagnostic) -> tuple:
    return (d.rule_id, d.severity, d.file, d.line, d.column, d.message, d.related)
