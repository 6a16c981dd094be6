import errno
import os
import time

import numpy as np
import pytest

from conftest import in_children, no_child_left, within, workers
from triemoments import TrieMomentsError, compute, exact, fork
from triemoments.mc import sample_matrix


def test_deal_hands_each_index_to_one_worker_between_barriers(monkeypatch):
    # more workers than this box has cores: every index of every deal is
    # taken by exactly one worker, and no worker takes an index of deal j
    # before every index of deal j - 1 is done
    k, deals = 4, 40
    forked = workers(monkeypatch, k)
    times = fork.shared((deals, deals), np.int64)
    early = fork.shared((deals, deals), np.int64)

    def work(deal):
        for j in range(deals):
            for c in deal(j):
                early[j, c] = j and (times[j - 1, :j - 1] == 0).any()
                times[j, c] += 1

    with within(60):    # the workers are killed and reaped when it fires
        fork.run(k, work)
    assert len(forked) == k - 1
    no_child_left()
    assert (times == np.tri(deals, k=-1, dtype=np.int64)).all()
    assert not early.any()


def test_dealing_process_keeps_run_0(monkeypatch):
    # over 3 workers and deals of 0 to more than 512 indices: this process
    # takes every index of run 0 (index 0 alone while a deal has at most
    # 512), every index is taken once, and each deal is a barrier
    sizes = [0, 1, 2, 3, 7, 0, 511, 512, 513, 1100, 1, 0, 40]
    forked = workers(monkeypatch, 3)
    times = fork.shared((len(sizes), max(sizes)), np.int64)
    early = fork.shared((len(sizes), max(sizes)), np.int64)
    pid = fork.shared((len(sizes), max(sizes)), np.int64)

    def work(deal):
        for j, m in enumerate(sizes):
            for c in deal(m):
                early[j, c] = j and (times[j - 1, :sizes[j - 1]] == 0).any()
                times[j, c] += 1
                pid[j, c] = os.getpid()

    with within(60):
        fork.run(3, work)
    assert len(forked) == 2
    no_child_left()
    for j, m in enumerate(sizes):
        assert (times[j, :m] == 1).all() and not times[j, m:].any(), m
        first = m // min(m, 512) if m else 0
        assert (pid[j, :first] == os.getpid()).all(), m
    assert not early.any()


# A deal of more indices than the dealing pipe holds: it is written as at
# most PIPE_BUF bytes of runs of indices.
_LARGE = 100_000


def _pause_first(deal):
    """The indices of ``deal(_LARGE)``, after a pause at the first, so
    that every worker is reading the pipe before the runs run out."""
    for i, j in enumerate(deal(_LARGE)):
        if i == 0:
            time.sleep(0.05)
        yield j


def test_large_deal_hands_each_index_to_one_worker(monkeypatch):
    forked = workers(monkeypatch, 3)
    taken = fork.shared((_LARGE,), np.int64)
    pid = fork.shared((_LARGE,), np.int64)

    def work(deal):
        for j in _pause_first(deal):
            taken[j] += 1
            pid[j] = os.getpid()

    with within(60):
        fork.run(3, work)
    no_child_left()
    assert (taken == 1).all()
    assert set(pid.tolist()) == {os.getpid(), *forked}


def test_worker_dying_in_a_large_deal(monkeypatch):
    # the dealing process never blocks on the pipe, so a worker that ends
    # at its first index is an error at once, not a hang
    forked = workers(monkeypatch, 3)
    die = in_children(lambda: None, lambda: os._exit(1))

    def work(deal):
        for j in _pause_first(deal):
            die()

    with within(60), pytest.raises(TrieMomentsError) as e:
        fork.run(3, work)
    assert str(e.value) in [f"worker process {pid} ended without a result"
                            for pid in forked]
    no_child_left()


# os.fork or os.pipe fails (out of pids or fds) at every period-th call:
# at the second fork of each run, at the pipe of the dealing, and at the
# second pipe of the first child, after its first is opened
@pytest.mark.parametrize("call, period, forks", [
    ("fork", 2, 2), ("pipe", 1, 0), ("pipe", 3, 0)])
def test_failed_fork_goes_on_with_the_workers_started(monkeypatch, call,
                                                      period, forks):
    # the pipes opened for a child that is not started are closed, and the
    # workers started give the table and the sample of one process
    monkeypatch.setattr(exact, "_WORKER_CELLS", 1)
    workers(monkeypatch, 1)
    want = compute(0.3, 1500), sample_matrix(1000, 0.3, 3159, seed=4)
    forked = workers(monkeypatch, 3)
    real, calls = getattr(os, call), []

    def failing():
        calls.append(None)
        if len(calls) % period == 0:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    monkeypatch.setattr(os, call, failing)
    fds = sorted(os.listdir("/proc/self/fd"))
    with within(60):
        got = compute(0.3, 1500), sample_matrix(1000, 0.3, 3159, seed=4)
    assert len(calls) == 2 * period and len(forked) == forks
    no_child_left()
    assert sorted(os.listdir("/proc/self/fd")) == fds
    for name in exact.MomentTable.COLUMNS[1:9]:
        assert (getattr(got[0], name).tobytes()
                == getattr(want[0], name).tobytes()), name
    assert np.array_equal(got[1], want[1])
