"""Worker processes over shared memory: the one process layer of the exact
DP (``exact._compute_centred``), the Monte-Carlo sampler
(``mc.sample_beside``, which also deals ``compare``'s exact cone beside its
batches) and criterion 11's explicit-key check.

``run(k, work)`` calls ``work(deal)`` in this process and k - 1 ``os.fork``
children.  Fork, not spawn: a child inherits the imports, the caches and
every array built before the call, and writes its results into arrays from
``shared``, anonymous memory mapped shared, which this process reads in
place; nothing is copied back.  Where a pipe or a fork fails (pids or fds
run out), ``run`` goes on with the workers it has: no result depends on
their number.

``deal(m)``, the one way work is handed out, yields the indices 0..m-1,
each to the first worker that asks, so a worker on a slower CPU takes
fewer; every worker makes the same calls.  The indices fall into c =
min(m, _RUNS) runs, run r the indices r*m//c..(r+1)*m//c - 1.  This
process writes the run numbers 1..c-1 and one end mark per worker, at
most PIPE_BUF bytes, into the empty pipe that every worker reads up to an
end mark, so the write never blocks; then it takes run 0 itself and reads
the pipe like the others.  So index 0 is always taken here: work whose
result must stay in this process, or that calls ``run`` itself, goes
there, and only the dealing process ever forks; a worker never does, and
each process is reaped by the one that forked it.  Each deal is a
barrier: a child reports that it took its end mark and waits until this
process, having taken its own and heard from every child, lets it go on,
so no index of the next deal is handed out before every index of this one
is done.  A child reports the end of a deal, that it finished, or the
exception its work raised, pickled, through a pipe of its own, and waits
on a second pipe.  A child's exception is raised here unchanged; a child
that ends without a word raises TrieMomentsError.  On any failure every
child is killed; every child is reaped before ``run`` returns or raises.
"""

from __future__ import annotations

import errno
import math
import mmap
import os
import pickle
import select
import struct

import numpy as np

from .errors import TrieMomentsError

_END = -1       # the end mark of a deal
_RUNS = select.PIPE_BUF // 8    # at most: runs of a deal, and workers


def cpus() -> int:
    """CPUs this process may run on; 1 where os.fork or affinity is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def shared(shape, dtype) -> np.ndarray:
    """A zeroed array of ``shape`` and ``dtype`` in anonymous shared memory:
    what a forked worker writes into it, this process reads."""
    count = math.prod(shape)
    size = count * np.dtype(dtype).itemsize
    try:
        buf = mmap.mmap(-1, size)
    except OSError as e:
        if e.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"Unable to allocate {size} bytes of shared memory "
                          f"for an array of shape {shape}") from None
    return np.frombuffer(buf, dtype, count).reshape(shape)


def _run(r: int, m: int) -> range:
    """The indices of run r of ``deal(m)``."""
    c = min(m, _RUNS)
    return range(r * m // c, (r + 1) * m // c)


def _taken(fd: int, m: int):
    """The indices of the runs of ``deal(m)`` read from the dealing pipe
    ``fd`` up to an end mark; 4 bytes a read, so no two readers split one."""
    while True:
        data = os.read(fd, 4)
        if not data:
            raise EOFError("the dealing process is gone")
        r, = struct.unpack("i", data)
        if r == _END:
            return
        yield from _run(r, m)


class _Child:
    """This process's side of one worker: its pid, the pipe it reports on
    and the pipe that lets it pass the end of a deal."""

    def __init__(self, pid: int, report: int, release: int):
        self.pid = pid
        self.report = os.fdopen(report, "rb")
        self.release = release

    def expect(self, word: bytes) -> None:
        """Read the worker's next report, which must be ``word``."""
        got = self.report.read(1)
        if got == b"E":
            raise pickle.load(self.report)
        if got != word:
            raise TrieMomentsError(
                f"worker process {self.pid} ended without a result")

    def close(self) -> None:
        self.report.close()
        os.close(self.release)


def _serve(work, take: int, report: int, release: int) -> None:
    """A forked worker's life: work(deal), then its report, then os._exit."""
    code = 1
    try:
        out = os.fdopen(report, "wb")

        def deal(m):
            yield from _taken(take, m)
            out.write(b"B")
            out.flush()
            if not os.read(release, 1):
                raise EOFError("the dealing process is gone")

        try:
            work(deal)
            word = b"D"
        except Exception as e:      # raised again by the parent
            word = b"E" + pickle.dumps(e, pickle.HIGHEST_PROTOCOL)
        out.write(word)
        out.flush()
        code = 0
    finally:
        os._exit(code)


def run(k: int, work) -> None:
    """Call ``work(deal)`` here and in min(k, _RUNS) - 1 forked children."""
    if k > 1:
        try:
            take, give = os.pipe()
        except OSError:     # out of fds: this process alone
            k = 1
    if k == 1:
        work(range)      # one worker: every index to it, in order
        return
    children = []

    def deal(m):
        runs, ends = range(1, min(m, _RUNS)), len(children) + 1
        os.write(give, struct.pack(f"{len(runs) + ends}i", *runs,
                                   *[_END] * ends))
        if m:
            yield from _run(0, m)
        yield from _taken(take, m)
        for c in children:
            c.expect(b"B")
        for c in children:
            os.write(c.release, b"G")

    try:
        for _ in range(min(k, _RUNS) - 1):
            fds = []
            try:
                fds += os.pipe()
                fds += os.pipe()
                pid = os.fork()
            except OSError:     # out of pids or fds: go on with fewer
                for fd in fds:
                    os.close(fd)
                break
            report_r, report_w, release_r, release_w = fds
            if pid == 0:
                os.close(give)      # so a child sees EOF when we are gone
                os.close(report_r)
                os.close(release_w)
                for c in children:
                    c.close()
                _serve(work, take, report_w, release_r)
            os.close(report_w)
            os.close(release_r)
            children.append(_Child(pid, report_r, release_w))
        work(deal)
        for c in children:
            c.expect(b"D")
    except BaseException:
        from signal import SIGKILL      # imported on failure only
        for c in children:
            os.kill(c.pid, SIGKILL)
        raise
    finally:
        os.close(take)
        os.close(give)
        for c in children:
            c.close()
            os.waitpid(c.pid, 0)
