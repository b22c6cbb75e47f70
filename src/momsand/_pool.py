"""Worker-pool plumbing honoring the MOMSAND_THREADS cap.

By default the pool has one worker per CPU this process may run on;
MOMSAND_THREADS caps it, and MOMSAND_THREADS=1 runs every item serially on
the calling thread.  Results are returned in submission order, so callers
that combine partial results positionally get the same answer at every
worker count.  Each worker holds one item's buffers at a time, so memory in
flight grows with the worker count, by about one item's footprint each.
"""

import os
from concurrent.futures import ThreadPoolExecutor


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


def map_indexed(fn, items):
    """Apply fn to every item, preserving list order in the results."""
    items = list(items)
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
