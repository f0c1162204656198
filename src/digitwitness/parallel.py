"""One ordered parallel map over [0, total), shared by construct and density.

The process-pool stack (`concurrent.futures.process`, `multiprocessing`,
`socket`, `pickle`, `logging`, `subprocess`) is imported when the first pool
starts, not with this module: most runs take one process and never need it.
Loaded with `digitwitness.cli`, it cost a one-item `construct` 26 ms of wall
time and 2.6 MiB of peak RSS (2-vCPU VM, Python 3.11.7).
"""

from __future__ import annotations

import os
from collections import deque
from itertools import islice
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")


def _cpu_count() -> int:
    """CPUs this process may run on (os.cpu_count where affinity is unknown)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def chunked_map(
    fn: Callable[[int, int], T], total: int, workers: int, chunk: int
) -> Iterator[T]:
    """Yield fn(start, stop) over consecutive `chunk`-wide pieces of [0, total).

    workers < 1 is refused at the call.  Results come in chunk order.  The
    work takes min(workers, chunks, CPUs) processes: with one, fn runs in
    this process and no pool is created; otherwise _pool_map runs the
    picklable fn in a pool of that many, with at most two chunks per process
    in flight, so memory is bounded by the chunks in flight, not by `total`.
    An exception raised by fn reaches the caller.  The pool's modules are
    imported only once a pool starts (see the module docstring).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    chunks = ((start, min(start + chunk, total)) for start in range(0, total, chunk))
    processes = min(workers, -(-total // chunk), _cpu_count())
    if processes <= 1:
        return (fn(start, stop) for start, stop in chunks)
    return _pool_map(fn, chunks, processes)


def _pool_map(fn: Callable, chunks: Iterator, processes: int) -> Iterator:
    """chunked_map's pool: fn over chunks in `processes` processes, in order."""
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=processes) as pool:
        pending = deque(pool.submit(fn, *c) for c in islice(chunks, 2 * processes))
        while pending:
            result = pending.popleft().result()
            for c in islice(chunks, 1):  # one submitted per result taken
                pending.append(pool.submit(fn, *c))
            yield result
