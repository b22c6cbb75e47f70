"""_pool.map_indexed: one process-wide pool per worker count, nested calls, the cap."""

import threading

import pytest

from momsand._pool import map_indexed

# a barrier of k parties passes only when k items run at once, on k threads
TIMEOUT_S = 30


def _threads_meeting(parties):
    barrier = threading.Barrier(parties, timeout=TIMEOUT_S)

    def item(_):
        barrier.wait()
        return threading.current_thread()

    return map_indexed(item, range(parties))


def test_calls_reuse_the_pools_threads(monkeypatch):
    monkeypatch.setenv("MOMSAND_THREADS", "2")
    first = _threads_meeting(2)
    second = _threads_meeting(2)
    assert len(set(first)) == 2
    assert set(second) == set(first)
    assert threading.current_thread() not in first


def test_a_nested_call_runs_serially_on_its_worker(monkeypatch):
    monkeypatch.setenv("MOMSAND_THREADS", "2")

    def outer(i):
        inner = map_indexed(lambda j: (i * j, threading.current_thread()), range(4))
        return [value for value, _ in inner], {thread for _, thread in inner}

    results = map_indexed(outer, range(4))
    assert [values for values, _ in results] == [[i * j for j in range(4)] for i in range(4)]
    # each inner call stayed on the worker that ran its outer item
    assert all(len(threads) == 1 for _, threads in results)
    assert threading.current_thread() not in set().union(*(threads for _, threads in results))


def test_a_changed_cap_holds_from_the_next_call(monkeypatch):
    monkeypatch.setenv("MOMSAND_THREADS", "2")
    assert len(set(_threads_meeting(2))) == 2
    monkeypatch.setenv("MOMSAND_THREADS", "3")
    assert len(set(_threads_meeting(3))) == 3
    monkeypatch.setenv("MOMSAND_THREADS", "1")
    assert map_indexed(lambda _: threading.current_thread(), range(3)) == [
        threading.current_thread()
    ] * 3


def test_every_item_runs_before_an_error_is_raised(monkeypatch):
    monkeypatch.setenv("MOMSAND_THREADS", "2")
    done = []

    def item(i):
        if i == 1:
            raise KeyError(i)
        done.append(i)

    with pytest.raises(KeyError):
        map_indexed(item, range(6))
    assert sorted(done) == [0, 2, 3, 4, 5]
