"""Worker processes over shared memory: the one process layer of the exact
DP (``exact._compute_centred``) and the Monte-Carlo sampler
(``mc.sample_matrix``).

``run(k, work, name)`` calls ``work(i, deal)`` for i = 0..k-1: i = 0 in this
process, the others in ``os.fork`` children.  Fork, not spawn: a child
inherits the imports, the caches and every array built before the call, and
writes its results into arrays from ``shared``, anonymous memory mapped
shared, which this process reads in place; nothing is copied back.

``deal(m)`` hands out the indices 0..m-1 to the workers, each index to the
first worker that asks, so a worker on a slower CPU takes fewer; every
worker makes the same calls.  This process writes the m indices, and one
end mark per worker, into a pipe that every worker reads, and a worker
takes indices up to an end mark.  Each deal is a barrier: a child reports
that it took its end mark and waits until this process, having taken its
own and heard from every child, lets it go on, so no index of the next
deal is handed out before every index of this one is done.  A child
reports the end of a deal, that it finished, or the exception its work
raised, pickled, through a pipe of its own, and waits on a second pipe.  A
child's exception is raised here unchanged; a child that ends without a
word raises TrieMomentsError with ``name(i)``.  On any failure every child
is killed; every child is reaped before ``run`` returns or raises.
"""

from __future__ import annotations

import errno
import math
import mmap
import os
import pickle
import struct

import numpy as np

from .errors import TrieMomentsError

_END = -1       # the end mark of a deal


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


def _taken(fd: int):
    """The indices read from the dealing pipe ``fd`` up to an end mark.  Each
    is written and read as 4 bytes at once, so no two readers split one."""
    while True:
        data = os.read(fd, 4)
        if not data:
            raise EOFError("the dealing process is gone")
        j, = struct.unpack("i", data)
        if j == _END:
            return
        yield j


class _Child:
    """This process's side of one worker: its pid, the pipe it reports on
    and the pipe that lets it pass the end of a deal."""

    def __init__(self, pid: int, report: int, release: int, name: str):
        self.pid, self.name = pid, name
        self.report = os.fdopen(report, "rb")
        self.release = release

    def expect(self, word: bytes) -> None:
        """Read the worker's next report, which must be ``word``."""
        got = self.report.read(1)
        if got == b"E":
            raise pickle.load(self.report)
        if got != word:
            raise TrieMomentsError(f"worker process {self.pid} ({self.name}) "
                                   "ended without a result")

    def close(self) -> None:
        self.report.close()
        os.close(self.release)


def _serve(i: int, work, take: int, report: int, release: int) -> None:
    """A forked worker's life: work(i, deal), then its report, then
    os._exit."""
    code = 1
    try:
        out = os.fdopen(report, "wb")

        def deal(m):
            yield from _taken(take)
            out.write(b"B")
            out.flush()
            if not os.read(release, 1):
                raise EOFError("the dealing process is gone")

        try:
            work(i, deal)
            word = b"D"
        except Exception as e:      # raised again by the parent
            word = b"E" + pickle.dumps(e, pickle.HIGHEST_PROTOCOL)
        out.write(word)
        out.flush()
        code = 0
    finally:
        os._exit(code)


def run(k: int, work, name) -> None:
    """Call ``work(i, deal)`` for i = 0..k-1, i = 0 here and each other i in
    a forked child; ``name(i)`` names worker i in an error."""
    if k == 1:
        work(0, range)      # one worker: every index to it, in order
        return
    children = []
    take, give = os.pipe()

    def deal(m):
        os.write(give, struct.pack(f"{m + k}i", *range(m), *[_END] * k))
        yield from _taken(take)
        for c in children:
            c.expect(b"B")
        for c in children:
            os.write(c.release, b"G")

    try:
        for i in range(1, k):
            report_r, report_w = os.pipe()
            release_r, release_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(give)      # so a child sees EOF when we are gone
                os.close(report_r)
                os.close(release_w)
                for c in children:
                    c.close()
                _serve(i, work, take, report_w, release_r)
            os.close(report_w)
            os.close(release_r)
            children.append(_Child(pid, report_r, release_w, name(i)))
        work(0, deal)
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
