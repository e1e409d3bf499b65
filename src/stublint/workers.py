"""The C files of one run, claimed from one queue by this process and its
forked workers.

`cli.run` loads this module only when the C parts (`cli._parts`: whole
files, or a lone file cut at top-level items) are more than one and so are
the CPUs.  `Claims` groups the parts into at most 256 contiguous claims and
writes one byte per claim, its index, into a pipe before any worker is
forked; so the write never blocks (it is under `PIPE_BUF`), each 1-byte
read takes one claim atomically, and the pipe's end is the queue's.  Each
worker, made with `os.fork`, takes claims and runs `cli._analyze_files` on
them until the queue is empty, then sends back the records of each claim
it took, tagged with the claim's index and pickled as they are, over a pipe
private to the fork.  This process takes claims from the same queue once
its `.ml` side and outputs are done, and puts the records of all claims in
the order of their indexes, those of a run in one process.  A worker
writes nothing to stdout or stderr and leaves by `os._exit`, so it never
flushes, or runs the exit handlers of, a copy of its parent's state.
"""

from __future__ import annotations

import io
import os
import pickle

from .cli import FatalError, Record, _analyze_files


class Claims:
    """The claims of `parts`, queued in a pipe, and the workers, one fewer
    than `jobs` and than the claims, that take them with this process.  A
    refused pipe or process means fewer workers, and so more claims left
    to `results`, in this process."""

    def __init__(self, parts: list[tuple], table, jobs: int):
        n = len(parts)
        count = min(n, 256)  # one byte per claim
        cuts = [i * n // count for i in range(count + 1)]
        self.claims = [parts[a:b] for a, b in zip(cuts, cuts[1:])]
        self.table = table
        self.queue = io.BytesIO(bytes(range(count)))  # until a pipe shares it
        self.started = []  # (pid, reader) of each worker
        try:
            read_fd, write_fd = os.pipe()
            os.write(write_fd, self.queue.getvalue())
            os.close(write_fd)
            self.queue = open(read_fd, "rb", buffering=0)
            for _ in range(min(jobs, count) - 1):
                self.started.append(_start(self.queue, self.claims, table))
        except OSError:
            pass

    def results(self) -> list[Record]:
        """The records of the claims, in order, once this process has taken
        what the workers left and each worker has sent what it took; raises
        the error a run in one process would meet first, or the failure of
        a worker, as a `RuntimeError` that carries its traceback."""
        done = _drain(self.queue, self.claims, self.table)
        for _pid, reader in self.started:
            try:
                kind, payload = pickle.loads(reader.read())
            except (EOFError, pickle.UnpicklingError):
                message = "a worker ended without sending its results"
                raise RuntimeError(message) from None
            if kind == "crash":
                raise RuntimeError(f"a worker failed:\n{payload}")
            done += payload
        records = []
        # the claims are taken in order, and none is left but after an error
        for _index, got in sorted(done, key=lambda claim: claim[0]):
            if isinstance(got, FatalError):
                raise got
            records.extend(got)
        return records

    def reap(self, finished: bool):
        """Wait for every worker.  Unless the run `finished`, kill each
        first: one may still be working, or blocked on a full pipe."""
        if not finished:
            from signal import SIGKILL  # only an error pays for the import
        self.queue.close()
        for pid, reader in self.started:
            reader.close()
            if not finished:
                os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _drain(queue, claims, table) -> list[tuple]:
    """(index, records) of each claim taken from `queue` until it is
    empty; a claim that raises a `FatalError` gives it instead, and is the
    last taken, as the claims after it cannot change the run's error."""
    done = []
    while index := queue.read(1):
        try:
            done.append((index[0], _analyze_files(claims[index[0]], table)))
        except FatalError as exc:
            return done + [(index[0], exc)]
    return done


def _start(queue, claims, table):
    """Fork a worker that drains `queue`.  Returns its pid and the reading
    end of the pipe its reply comes back on: what `_drain` gave, or the
    traceback of any exception but a `FatalError`, pickled."""
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
                reply = ("done", _drain(queue, claims, table))
            except Exception:
                import traceback

                reply = ("crash", traceback.format_exc())
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")
