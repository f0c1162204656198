import marshal
import os
import signal

import pytest

from digitwitness import parallel
from digitwitness.parallel import chunked_map


def span(start, stop):
    return list(range(start, stop))


@pytest.fixture
def forks(monkeypatch):
    """Count the workers the map forks (the count is kept in this process)."""
    log = {"forks": 0}
    fork = os.fork

    def counted():
        log["forks"] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return log


@pytest.fixture
def deadline():
    """Fail a test that hangs instead of hanging the run; a forked worker
    does not inherit the alarm."""

    def expired(signum, frame):
        raise TimeoutError("the map did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("total, chunk", [(10, 3), (2, 5), (0, 4)])
def test_pool_matches_inline_run(total, chunk, monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    inline = list(chunked_map(span, total, 1, chunk))
    assert inline == [span(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    assert [x for part in inline for x in part] == list(range(total))
    assert list(chunked_map(span, total, 2, chunk)) == inline
    assert_no_child_left()


def test_pool_has_at_most_one_process_per_chunk(forks, monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 1000)
    assert list(chunked_map(span, 3, 1000, 1)) == [[0], [1], [2]]
    assert forks["forks"] == 3


def test_pool_has_at_most_one_process_per_cpu(forks):
    cpus = parallel._cpu_count()
    results = chunked_map(span, 10**4, 10**6, 1)
    assert next(results) == [0]
    assert forks["forks"] == (cpus if cpus > 1 else 0)
    assert list(results) == [[i] for i in range(1, 10**4)]
    assert forks["forks"] == (cpus if cpus > 1 else 0)


def test_one_cpu_starts_no_pool(forks, monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 1)
    assert list(chunked_map(span, 3, 1000, 1)) == [[0], [1], [2]]
    assert forks["forks"] == 0


def test_single_chunk_starts_no_pool(forks):
    assert list(chunked_map(span, 3, 1000, 5)) == [[0, 1, 2]]
    assert forks["forks"] == 0


def test_without_fork_the_map_runs_in_this_process(monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    monkeypatch.delattr(os, "fork")
    pids = list(chunked_map(lambda start, stop: os.getpid(), 4, 2, 1))
    assert pids == [os.getpid()] * 4


def test_chunks_are_computed_in_the_workers(monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    pids = list(chunked_map(lambda start, stop: os.getpid(), 4, 2, 1))
    assert os.getpid() not in pids
    assert pids[0] == pids[2] != pids[1] == pids[3]  # chunk j in worker j % 2
    assert_no_child_left()


def test_results_larger_than_a_pipe_come_back_in_order(monkeypatch, deadline):
    # each 1 MiB result fills a pipe 16 times over: a worker waits on its pipe
    # until the parent reads, and the parent reads the workers in turn
    def big(start, stop):
        return chr(ord("a") + start) * (1 << 20)

    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    inline = list(chunked_map(big, 8, 1, 1))
    assert list(chunked_map(big, 8, 2, 1)) == inline
    assert [r[0] for r in inline] == list("abcdefgh")
    assert_no_child_left()


def test_a_workers_exception_reaches_the_caller(monkeypatch, deadline):
    def fails_at_five(start, stop):
        if start == 5:
            raise ValueError(f"chunk {start} is bad")
        return start

    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    results = chunked_map(fails_at_five, 10, 2, 1)
    assert [next(results) for _ in range(5)] == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError) as info:
        next(results)
    assert str(info.value) == "chunk 5 is bad"
    assert_no_child_left()


def test_a_worker_that_dies_is_reported_with_its_status(monkeypatch, deadline):
    def dies_at_three(start, stop):
        if start == 3:
            os._exit(3)
        return start

    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    results = chunked_map(dies_at_three, 10, 2, 1)
    assert [next(results) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(parallel.WorkerDied) as info:
        next(results)
    assert str(info.value) == "a worker exited with status 3 before sending chunk 3"
    assert_no_child_left()


def test_a_result_cut_short_is_a_worker_death(monkeypatch, deadline):
    # the worker dies while writing chunk 1: the parent reads part of it
    def dies_inside_one(value, out):
        ok, result = value
        if result == 1:
            out.write(marshal.dumps(value)[:-1])
            out.flush()
            os._exit(4)
        marshal_dump(value, out)

    marshal_dump = marshal.dump
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    monkeypatch.setattr(marshal, "dump", dies_inside_one)
    results = chunked_map(lambda start, stop: start, 4, 2, 1)
    assert next(results) == 0
    with pytest.raises(parallel.WorkerDied) as info:
        next(results)
    assert str(info.value) == "a worker exited with status 4 before sending chunk 1"
    assert_no_child_left()


def test_closing_after_the_first_result_leaves_no_worker(monkeypatch, deadline):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    results = chunked_map(span, 10**6, 2, 1)
    assert next(results) == [0]
    results.close()
    assert_no_child_left()


def test_workers_below_one_are_refused_at_the_call():
    # the call itself raises, before any chunk runs or next() is taken
    def never(start, stop):
        raise AssertionError("fn ran")

    with pytest.raises(ValueError) as info:
        chunked_map(never, 3, 0, 1)
    assert str(info.value) == "workers must be >= 1"
