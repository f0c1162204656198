"""One ordered parallel map over [0, total), shared by construct and density.

With several processes (POSIX only), the first result requested forks the
workers, each with its own pipe.  Worker i of P computes chunks i, i+P,
i+2P, ... and writes each as the `marshal`led pair (True, result).  So fn
and the plan it closes over reach the workers by fork, and nothing is
pickled per chunk.  The parent reads chunk j from worker j % P.  A worker
whose pipe is full waits, so memory holds one chunk per worker plus what
the pipes buffer, not `total`.  A chunk that raises sends (False, its
exception pickled) in place of its result; `pickle` is imported only then.

A worker always leaves by os._exit: it never flushes the stdio buffers it
shares with the parent (a CSV header written but not yet flushed would be
printed twice) and never runs the caller's `with` exits.  Forking is safe
because the program starts no thread.  No thread, queue or executor is
involved, so `concurrent.futures` and `multiprocessing` are never loaded;
their import alone cost 23-28 ms of wall time and 2.6 MiB of peak RSS
(2-vCPU VM, Python 3.11.7).  Where os.fork is missing, the map runs in the
calling process.
"""

from __future__ import annotations

import marshal
import os
from typing import IO, Callable, Iterator, TypeVar

T = TypeVar("T")


class WorkerDied(RuntimeError):
    """A worker ended before sending its next chunk."""


def _cpu_count() -> int:
    """CPUs this process may run on (os.cpu_count where affinity is unknown)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def chunked_map(
    fn: Callable[[int, int], T], total: int, workers: int, chunk: int
) -> Iterator[T]:
    """Yield fn(start, stop) over consecutive `chunk`-wide pieces of [0, total).

    workers < 1 is refused at the call.  Results come in chunk order.  The
    work takes min(workers, chunks, CPUs) processes: with one, or without
    os.fork, fn runs in this process; otherwise _fork_map runs it in that
    many forked workers, and each result must be a value `marshal` writes
    (str, int, list, ...).  An exception raised by fn reaches the caller.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    starts = range(0, total, chunk)
    processes = min(workers, len(starts), _cpu_count())

    def run(start: int) -> T:
        return fn(start, min(start + chunk, total))

    if processes <= 1 or not hasattr(os, "fork"):
        return map(run, starts)
    return _fork_map(run, starts, processes)


def _fork_map(run: Callable[[int], T], starts: range, processes: int) -> Iterator[T]:
    """chunked_map's workers: run(start) for each start, in order, computed
    by `processes` forked workers (see the module docstring).

    A worker that ends without sending its next chunk raises WorkerDied
    naming its exit status (-N for signal N).  However the iteration ends,
    by its last chunk, an error or the caller closing it, every pipe is
    closed and every worker is sent SIGTERM and reaped.
    """
    import signal

    readers, pids = [], []
    try:
        for i in range(processes):
            read, write = os.pipe()
            readers.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(run, starts[i::processes], write, readers)
            finally:
                os.close(write)
            pids.append(pid)
        for index in range(len(starts)):
            worker = index % processes
            try:
                ok, value = marshal.load(readers[worker])
            except (EOFError, ValueError):  # the pipe ended, whole or cut short
                _, status = os.waitpid(pids[worker], 0)
                pids[worker] = 0  # reaped
                raise WorkerDied(
                    f"a worker exited with status {os.waitstatus_to_exitcode(status)}"
                    f" before sending chunk {index}"
                ) from None
            if not ok:
                import pickle

                raise pickle.loads(value)
            yield value
    finally:
        for reader in readers:
            reader.close()
        for pid in filter(None, pids):
            os.kill(pid, signal.SIGTERM)  # a no-op on one that has exited
            os.waitpid(pid, 0)


def _work(
    run: Callable[[int], object], starts: range, write: int, readers: list[IO[bytes]]
) -> None:
    """A worker's life: (True, result) per start, or (False, exception) for
    the first that raises, each flushed whole, then os._exit; it never
    returns."""
    status = 1
    try:
        # the parent is each pipe's only reader, so a worker whose parent is
        # gone meets a broken pipe, not a full one
        for reader in readers:
            reader.close()
        out = open(write, "wb")
        try:
            for start in starts:
                marshal.dump((True, run(start)), out)
                out.flush()
            status = 0
        except Exception as exc:
            import pickle

            marshal.dump((False, pickle.dumps(exc)), out)
            out.flush()
    finally:
        os._exit(status)
