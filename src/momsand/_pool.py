"""Worker-pool plumbing honoring the MOMSAND_THREADS cap.

By default the pool has one worker per CPU this process may run on;
MOMSAND_THREADS caps it, and MOMSAND_THREADS=1 runs every item serially on
the calling thread.  The cap is read on every call, and the process keeps
one pool per worker count, so its threads start once and later calls reuse
them.  A call made from inside a pool worker runs its items serially on
that worker, so nested calls cannot wait on each other.  Results are
returned in submission order, so callers that combine partial results
positionally get the same answer at every worker count.  Each worker holds
one item's buffers at a time, so memory in flight grows with the worker
count, by about one item's footprint each.  concurrency(count) says how
many items run at once, so a caller can allocate that many buffer sets in
its own thread and hand them out (the exact mean does).
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()
_worker = threading.local()


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def worker_count() -> int:
    """The MOMSAND_THREADS cap, by default the CPUs this process may run on.

    A set value that is not an integer >= 1 raises ValueError.
    """
    raw = os.environ.get("MOMSAND_THREADS")
    if raw is None:
        return _available_cpus()
    try:
        n = int(raw)
        if n < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"MOMSAND_THREADS must be an integer >= 1, got {raw!r}") from None
    return n


def _mark_worker() -> None:
    _worker.busy = True


def _pool(workers: int) -> ThreadPoolExecutor:
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = _pools[workers] = ThreadPoolExecutor(workers, initializer=_mark_worker)
        return pool


def concurrency(count: int) -> int:
    """How many of count items map_indexed runs at once: 1 inside a pool worker."""
    if getattr(_worker, "busy", False):
        return 1
    return max(1, min(worker_count(), count))


def map_indexed(fn, items):
    """Apply fn to every item, preserving list order in the results.

    Every item has run when it returns or raises; an item's exception is
    raised in list order.  At most concurrency(len(items)) items run at once.
    """
    items = list(items)
    if concurrency(len(items)) <= 1:
        return [fn(item) for item in items]
    futures = [_pool(worker_count()).submit(fn, item) for item in items]
    wait(futures)
    return [future.result() for future in futures]
