import signal

import numpy as np

from conftest import no_child_left, workers
from triemoments import fork


def test_deal_hands_each_index_to_one_worker_between_barriers(monkeypatch):
    # more workers than this box has cores: every index of every deal is
    # taken by exactly one worker, and no worker takes an index of deal j
    # before every index of deal j - 1 is done
    k, deals = 4, 40
    forked = workers(monkeypatch, k)
    times = fork.shared((deals, deals), np.int64)
    early = fork.shared((k,), np.int64)

    def work(i, deal):
        for j in range(deals):
            for c in deal(j):
                if j and (times[j - 1, :j - 1] == 0).any():
                    early[i] += 1
                times[j, c] += 1

    def stuck(*a):
        raise TimeoutError("the deals did not end within 60 s")

    handler = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(60)    # the workers are killed and reaped when it fires
    try:
        fork.run(k, work, str)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert len(forked) == k - 1
    no_child_left()
    assert (times == np.tri(deals, k=-1, dtype=np.int64)).all()
    assert early.tolist() == [0] * k
