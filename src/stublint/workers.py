"""The C files of one run in forked worker processes.

`cli._slices` splits the parts of the C files, each a whole file or the
top-level items of a lone file that begin in a range of its lines (see
`cli._analyze_files`), into one slice per process; `cli.run` loads this
module only when there is more than one slice.  The caller analyzes the
first slice itself; each other slice goes to a worker made with `os.fork`,
which runs the same `cli._analyze_files` and sends its records back,
pickled as they are, over a pipe private to the fork.  A worker writes
nothing to stdout or stderr and leaves by `os._exit`, so it never flushes,
or runs the exit handlers of, a copy of its parent's state.
"""

from __future__ import annotations

import os
import pickle

from .cli import FatalError, Record, _analyze_files


class Workers:
    """A worker for each slice of parts in `slices`."""

    def __init__(self, slices: list[list[tuple]], table):
        self.slices = slices
        self.table = table
        self.started = []  # (pid, reader) of slices[0], slices[1], ...

    def start(self):
        """Fork a worker for each slice, until the system refuses one (too
        many processes or open files, no memory); the slices left over are
        analyzed by `results`, in this process."""
        for parts in self.slices:
            try:
                self.started.append(_start(parts, self.table))
            except OSError:
                break

    def results(self) -> list[Record]:
        """The records of the slices, in order, once each worker has sent
        them all; raises the first error one of them met."""
        records = []
        for _pid, reader in self.started:
            records.extend(_receive(reader))
        for parts in self.slices[len(self.started) :]:
            records.extend(_analyze_files(parts, self.table))
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
    exception, pickled."""
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
                reply = ("records", _analyze_files(parts, table))
            except FatalError as exc:
                reply = ("fatal", str(exc))
            except Exception:
                import traceback

                reply = ("crash", traceback.format_exc())
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _receive(reader) -> list[Record]:
    """The records a worker sent, once it has sent them all; raises the
    error it met instead."""
    try:
        kind, payload = pickle.loads(reader.read())
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError("a worker ended without sending its results") from None
    if kind == "fatal":
        raise FatalError(payload)
    if kind == "crash":
        raise RuntimeError(f"a worker failed:\n{payload}")
    return payload
