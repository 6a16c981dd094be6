import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from triemoments import exact


# Moment tables are the expensive shared resource; build each once per run.
_TABLES = {}


def table(p: float, n_max: int, precision: str = "standard") -> exact.MomentTable:
    key = (p, precision)
    have = _TABLES.get(key)
    if have is None or have.n_max < n_max:
        _TABLES[key] = exact.compute(p, n_max, precision)
    return _TABLES[key]


@pytest.fixture(scope="session")
def table_05():
    # covers acceptance at p = 1/2: rho windows to 4096
    return table(0.5, 4096)


@pytest.fixture(scope="session")
def table_05_ext():
    return table(0.5, 4096, "extended")


@pytest.fixture(scope="session")
def table_03():
    # p = 0.3: lambda slope to 2^14, rho_SN at 2^12
    return table(0.3, 16_384)


@pytest.fixture(scope="session")
def table_02():
    # p = 0.2: correlation-decay dichotomy and lambda slope to 2^14
    return table(0.2, 16_384)


def geometric_moments(c: float):
    """E L^k, k = 1..4, for P(L >= j) = c^j (common-prefix-length oracle)."""
    el1 = c / (1 - c)
    el2 = c * (1 + c) / (1 - c) ** 2
    el3 = c * (1 + 4 * c + c * c) / (1 - c) ** 3
    el4 = c * (1 + 11 * c + 11 * c * c + c ** 3) / (1 - c) ** 4
    return el1, el2, el3, el4


def two_key_oracle(p: float) -> dict:
    """All n=2 moments from S_2 = L+1, K_2 = 2 S_2, N_2 = L(L+1)/2."""
    q = 1.0 - p
    c = p * p + q * q
    el1, el2, el3, el4 = geometric_moments(c)
    es = el1 + 1
    es2 = el2 + 2 * el1 + 1
    en = (el2 + el1) / 2
    esn = (el3 + 2 * el2 + el1) / 2
    en2 = (el4 + 2 * el3 + el2) / 4
    return {
        "ES": es, "EK": 2 * es, "EN": en,
        "ES2": es2, "EK2": 4 * es2, "ESK": 2 * es2,
        "ESN": esn, "EN2": en2,
        "VarS": es2 - es ** 2,
    }


def assert_close(got, want, rtol=0.0, atol=0.0, msg=""):
    tol = atol + rtol * abs(want)
    assert abs(got - want) <= tol, (
        f"{msg}: got {got!r}, want {want!r} (|diff|={abs(got - want):.3g}, "
        f"tol={tol:.3g})")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def workers(monkeypatch, cpus):
    """Let the fork layer see ``cpus`` CPUs; returns the pids it forks.

    Only this process, the dealing one, may fork: ``os.fork`` raises
    AssertionError in a forked worker, which ``fork.run`` raises here."""
    monkeypatch.setattr("triemoments.fork.cpus", lambda: cpus)
    forked, fork, parent = [], os.fork, os.getpid()

    def counting_fork():
        if os.getpid() != parent:
            raise AssertionError(f"worker process {os.getpid()} forked")
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


@contextmanager
def within(seconds):
    """Raise TimeoutError in the block once it has run ``seconds`` s, so a
    deadlocked deal fails its test; fork.run kills and reaps the workers
    as the error unwinds it."""
    def stuck(*a):
        raise TimeoutError(f"not done within {seconds} s")

    handler = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_children(real, fault):
    """``real`` in this process, ``fault`` in the processes it forks."""
    parent = os.getpid()
    return lambda *a: real(*a) if os.getpid() == parent else fault(*a)
