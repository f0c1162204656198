from concurrent.futures import Future

import pytest

from digitwitness import parallel
from digitwitness.parallel import chunked_map


def span(start, stop):
    return list(range(start, stop))


@pytest.mark.parametrize("total, chunk", [(10, 3), (2, 5), (0, 4)])
def test_pool_matches_inline_run(total, chunk):
    inline = list(chunked_map(span, total, 1, chunk))
    assert inline == [span(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    assert [x for part in inline for x in part] == list(range(total))
    assert list(chunked_map(span, total, 2, chunk)) == inline


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool by one that runs each task at submit time and
    records the pool sizes asked for and the number of tasks submitted."""
    log = {"sizes": [], "submitted": 0}

    class InlineExecutor:
        def __init__(self, max_workers):
            log["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            log["submitted"] += 1
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlineExecutor)
    return log


def test_pool_has_at_most_one_process_per_chunk(fake_pool, monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 1000)
    assert list(chunked_map(span, 3, 1000, 1)) == [[0], [1], [2]]
    assert fake_pool["sizes"] == [3]


def test_pool_has_at_most_one_process_per_cpu(fake_pool):
    # a real pool would fork all of its processes at the first submit
    cpus = parallel._cpu_count()
    results = chunked_map(span, 10**4, 10**6, 1)
    assert next(results) == [0]
    assert fake_pool["sizes"] == ([cpus] if cpus > 1 else [])
    assert fake_pool["submitted"] <= 2 * cpus + 1
    assert list(results) == [[i] for i in range(1, 10**4)]


def test_one_cpu_starts_no_pool(fake_pool, monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 1)
    assert list(chunked_map(span, 3, 1000, 1)) == [[0], [1], [2]]
    assert fake_pool["sizes"] == []


def test_single_chunk_starts_no_pool(fake_pool):
    assert list(chunked_map(span, 3, 1000, 5)) == [[0, 1, 2]]
    assert fake_pool["sizes"] == []


def test_two_chunks_per_process_in_flight(fake_pool, monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    results = chunked_map(span, 100, 2, 1)
    assert next(results) == [0]
    # four submitted up front, one more once the first result was taken
    assert fake_pool["submitted"] == 5
    assert list(results) == [[i] for i in range(1, 100)]


def test_workers_below_one_are_refused_at_the_call():
    # the call itself raises, before any chunk runs or next() is taken
    def never(start, stop):
        raise AssertionError("fn ran")

    with pytest.raises(ValueError) as info:
        chunked_map(never, 3, 0, 1)
    assert str(info.value) == "workers must be >= 1"
