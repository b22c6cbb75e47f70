"""Worker-pool plumbing honoring the MOMSAND_THREADS cap.

Results are returned in submission order, so callers that combine partial
results positionally get the same answer at every worker count.
"""

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int:
    """The MOMSAND_THREADS cap (default 1); anything but an integer >= 1 raises."""
    raw = os.environ.get("MOMSAND_THREADS", "1")
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
