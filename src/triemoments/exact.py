"""Exact joint moments of (size, KPL, NPL) for random tries, at n <= n_max.

The three shape parameters satisfy, for n >= 2, distributional recurrences
of split type: the left subtree receives Binom(n, p) keys, the right the
rest, the two subtrees are independent, and the tolls are +1 (size), +n
(KPL) and +(left size + right size) (NPL).  Conditioning on the split and
applying the laws of total expectation and total covariance turns these
into a dynamic program over the means and the centred second moments:
Var S, Var K, Var N, Cov(S, K) and Cov(S, N).  Given the split k, the
conditional covariance is the sum of the two subtrees' covariances and
the conditional means deviate from the new means by

    d_S(k) = 1 + ES(k) + ES(n-k) - ES(n)
    d_K(k) = n + EK(k) + EK(n-k) - EK(n)
    d_N(k) = EN(k) + EN(n-k) + ES(k) + ES(n-k) - EN(n),

each of the order of a standard deviation, so no term cancels and the
variances need no subtraction of nearly equal raw moments.  The k = 0 and
k = n split outcomes reproduce the parent quantity itself; those self-terms
are moved to the left-hand side, so each step divides by 1 - p^n - q^n.

Each n sums only over the split outcomes k in a window [lo(n), hi(n)] =
k0 -+ t around the mode k0, with t = ceil(sqrt(121 ln 2 n / 2)) fixed a
priori by Hoeffding's bound so that each tail outside carries at most
2^-121 of the binomial mass, far below the float64 and long double
roundoff of 2^-53 and 2^-64 (``_windows``).  The window is at most
2 t + 1, about 13 sqrt(n), outcomes wide (831 at n = 4096), so the DP does
O(n_max^1.5) element work instead of O(n_max^2) and skips the far tails,
where the full pmf underflows.  Only at tiny p does the window itself
reach past underflow; the zero and subnormal weights at its ends are then
dropped (at most (n + 1) * tiny more mass), so none enters the sums.

Each n costs the weights over its window and two reductions: the linear
fold sum_k w(k) (M(k) + M(n-k)) of the (8, width) block of earlier
moments, and the 3x3 weighted Gram matrix of the deviations.  The
self-terms k = 0 and k = n count only when they fall inside the window.
The weight ratios (n - k) p / ((k + 1) q) read their factors i p and i q
from two tables built once per solve (``_ratio_tables``).

The index set and the cone
--------------------------
``_compute_centred`` is the one recurrence, run over a sorted index set of
n: 2..n_max for a full table.  As row n reads only the rows k and n - k of
its window, the rows that a few targets ``at`` need form their dependency
cone (``_cone``), a union of intervals around p^a q^b n_max, found by a
vectorised walk over the windows.  ``compute(p, n_max, at=...)`` fills
just the cone, each row by the full table's arithmetic, so the rows at
``at`` are bit-identical to the full table's; the table is sparse in that
it holds and answers for the rows ``at`` only.  At p = 1/2 the cone of
n = 2^20 holds 8 % of the rows (3.8e8 of the 9e9 window cells of the full
table), at p = 0.3 27 %; at small p the window spans most of 0..n and the
cone is nearly every row.  Before any DP work a solve is checked against
a budget of window cells, each long double cell weighed as
_EXTENDED_CELL_COST float64 ones, and of dense moment-array bytes
(WorkBudgetExceeded).

Within one n the update order is fixed by data dependence:

    ES, EK, EN  ->  Var S, Var K, Cov SK  ->  Cov SN  ->  Var N

(the deviations need the new means; Cov SN consumes Var S of the same n,
Var N consumes Cov SN and Var S).

Waves and worker processes
--------------------------
The latest row that row n reads is max(n - max(lo, 1), min(hi, n - 1)),
below n.  So a run of consecutive rows whose reads all end below the run's
first row has no dependence inside it: a wave (``_waves``).  At p = 0.3 no
wave before row 515 holds 8 rows (most rows there read the row before
them); after it 23 waves of 8 to 727 rows hold 96 % of the 2.26e6 cells
to n_max = 4096 (28 waves and 99.5 % to 16384; 22 waves and 99.995 % in
the cone of 2^20 at p = 1/2).  At p = 0.1 and below, no table to 4096 has
a wave.  The rows before the first wave of _WAVE_ROWS rows are solved in
this process.  ``fork.run``'s ``deal`` hands out the rows of each later
wave to its k workers (this process and k - 1 forked children), in runs of
consecutive rows, each run to the first worker free, so a worker on a
slower or busier CPU takes fewer; the rows of the next wave are dealt only
when every row of this one is solved.  ``fork.run`` picks
k = max(1, min(CPUs, wave cells // _WORKER_CELLS)), so a solve of fewer
than 2^21 wave cells (the cone of n = 64, 256 and 1024 at p = 1/2 has
1.45e5), or one on a single CPU (``taskset -c 0``), runs in this process
alone.  M lives in shared anonymous memory (``fork.shared``): each worker
writes its rows into it and reads the earlier rows from it, and the
float64 table's columns are views of it.  A row is solved by the one
function ``_row`` in whichever process, with the same arithmetic, so
every table and cone row is bit-identical for every k.  The workers call
BLAS for the 3x3 Gram product; OpenBLAS stops its thread pool before a
fork (a pthread_atfork handler) and a child starts its own if it needs
one, and the tests compare the forked table under OPENBLAS_NUM_THREADS =
1 and 2.

Precision modes
---------------
Both modes run the one centred recurrence below; they differ only in the
dtype its weights and moments are carried in.  Binomial weights come from
a mode-centred multiplicative recurrence with renormalisation over the
window, the linear reduction is numpy's pairwise sum and the Gram matrix
one matmul, so output is byte-identical per machine and BLAS build.  The
table holds the eight rows the recurrence carries, the three means and the
five centred second moments, each rounded to float64 once at the end; a
raw moment is Var + mean * mean.

standard   float64.
extended   long double, which needs a 64-bit significand (x86-64); with
           11 guard bits the float64 outputs lie within 1 ulp of the
           correctly rounded values (checked against a 50-digit mpmath DP
           in the tests).  compute() raises ValueError where long double
           is narrower.

Results are plain data: ``MomentTable.columns()`` gives the table by
column, in ``MomentTable.COLUMNS`` order, as Python numbers, and
``arrays()`` as numpy arrays, which the CLI formats a chunk of rows at a
time; the CLI alone adds the configuration and writes it as CSV or JSON.
``_canonical`` holds the one check of p shared by the exact, asymptotic
and Monte-Carlo routes.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import fork
from .errors import DegenerateVariance, WorkBudgetExceeded

# The dtype of precision "extended": x86-64's 80-bit long double carries a
# 64-bit significand, 11 bits more than float64.  Where long double is only
# a double, compute() refuses "extended".
_EXTENDED = np.longdouble
# Each tail outside the DP's window carries at most 2^-_TAIL_BITS of the
# binomial mass, far below the 2^-53 (2^-64) roundoff of the float64 (long
# double) sums (Hoeffding, see _windows).
_TAIL_BITS = 121
# Budget of one solve, checked before any DP work: the split outcomes (cells)
# summed over the rows filled, and the bytes of the dense (8, n_max + 1)
# moment array M.  It is the one bound on every exact solve.  At its edge,
# on a 2-core box, the CLI writes the full float64 table of p = 0.3 to
# n_max = 149,000 (5.0e8 cells, two processes) in 10.6 s with its 28.5 MB
# CSV, and the one of p = 0.002 to 220,000 (4.9e8 cells, no wave, one
# process) in 17.1 s; the long double table of p = 7.5e-8 to 81,000 (1.0e8
# cells) takes 15.7 s.
_MAX_CELLS = 5 * 10 ** 8
_MAX_M_BYTES = 2 ** 28
# An extended cell counts as this many standard ones against _MAX_CELLS: a
# long double cell costs 2.9-4.1x a float64 one (p = 0.3, n_max 16384 and
# p = 0.002, 7.5e-8, n_max 40,000, one process) and up to 5.4x near p = 0.
_EXTENDED_CELL_COST = 5
# The rows before the first wave of _WAVE_ROWS rows are solved in this process
# alone, and a solve takes one worker process per _WORKER_CELLS cells of its
# waves at least (about 60 ms of DP against about 4 ms to fork and reap one).
_WAVE_ROWS = 8
_WORKER_CELLS = 2 ** 20


def _canonical(p: float) -> tuple[float, float]:
    """The parameter pair (p_eff, q_eff) that the inputs p and 1 - p share.

    The law is invariant under p <-> q, so compute with the canonical pair:
    q_eff = max(p, 1-p) and p_eff = 1 - q_eff (exact by Sterbenz).  Inputs p
    and 1-p then run bit-identical arithmetic, so their tables serialize
    byte-identically; asym.params forms its constants from the same pair.

    This is also the one check of p: it must lie in (0, 1), and 1 - p must
    not round to 1, or the split weights would lose p altogether.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("p must be in (0,1)")
    q_eff = max(p, 1.0 - p)
    if q_eff == 1.0:
        raise ValueError(f"p={p!r} is too close to 0: 1 - p rounds to 1")
    return 1.0 - q_eff, q_eff


def _ratio_tables(n_max: int, p: float, q: float, dtype) -> tuple:
    """The factors i p and i q, i = 0..n_max, of the pmf ratios, in dtype."""
    i = np.arange(n_max + 1, dtype=dtype)
    return i * p, i * q


def _binom_weights(n: int, p: float, q: float, dtype=np.float64,
                   lo: int = 0, hi: int | None = None,
                   ratios: tuple | None = None) -> np.ndarray:
    """Binomial(n, p) pmf at k = lo..hi (default 0..n), by multiplicative
    recurrence outward from the mode, which must lie in [lo, hi].

    The mode value is seeded in log space (no under/overflow for any n) and
    the vector is renormalised so the weights sum to 1 exactly to rounding.
    The ratios w(k+1)/w(k) = (n - k) p / ((k + 1) q) read their factors from
    ``ratios``, the ``_ratio_tables`` of some n_max >= n in ``dtype`` (built
    here when not given); the products and the sum are formed in ``dtype``.
    Up to that sum, a window's entries are bit-identical to the full vector's.
    """
    hi = n if hi is None else hi
    if ratios is None:
        ratios = _ratio_tables(n, p, q, dtype)
    k0 = min(max(int((n + 1) * p), 0), n)
    j = k0 - lo
    a = ratios[0][n - lo:n - hi:-1]     # (n - k) p at k = lo..hi-1
    b = ratios[1][lo + 1:hi + 1]        # (k + 1) q
    w = np.empty(hi - lo + 1, dtype)
    w[j] = 1.0
    w[j + 1:] = np.multiply.accumulate(a[j:] / b[j:])
    if j > 0:
        w[j - 1::-1] = np.multiply.accumulate(b[j - 1::-1] / a[j - 1::-1])
    logw0 = (math.lgamma(n + 1) - math.lgamma(k0 + 1) - math.lgamma(n - k0 + 1)
             + k0 * math.log(p) + (n - k0) * math.log(q))
    w *= math.exp(logw0)
    w /= w.sum()
    return w


def _windows(n_max: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The split outcomes [lo(n), hi(n)], n = 0..n_max, the DP sums over.

    The window is k0 -+ t around the mode k0 = floor((n + 1) p), with
    t = ceil(sqrt(n * _TAIL_BITS * ln 2 / 2)), clipped to 0..n.  As
    np - 1 < k0 <= np + p, every outcome outside it lies more than t from
    np, and Hoeffding's bound exp(-2 t^2 / n) on P(X - np >= t) and on
    P(X - np <= -t) puts at most 2^-_TAIL_BITS of the Binomial(n, p) mass
    beyond either end.
    """
    n = np.arange(n_max + 1)
    t = np.ceil(np.sqrt(n * (_TAIL_BITS * math.log(2.0) / 2.0))).astype(np.int64)
    k0 = np.minimum(((n + 1) * p).astype(np.int64), n)
    return np.maximum(k0 - t, 0), np.minimum(k0 + t, n)


def _cone(at, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """The dependency cone of the rows ``at`` (sorted, distinct, each >= 2)
    under the windows ``lows``, ``highs``: the sorted rows n >= 2 the DP
    must fill to give them, ``at`` included.

    Row n reads rows k and n - k for k in its window clipped to 1..n-1
    (k = 0 and n are the self-terms; rows 0 and 1 are zero).  The walk
    keeps a frontier of rows not seen before, starting at ``at``.  Each run
    of consecutive frontier rows reads one interval of k and one of n - k:
    every window holds its mode, which moves by at most 1 from n to n + 1,
    so the windows of neighbouring n overlap and their union runs from the
    least lo to the largest hi.  The unseen rows of the union of these
    intervals, a few per step, form the next frontier, so each row enters
    it once.
    """
    n = np.arange(highs.size)
    lo = np.maximum(lows, 1)
    hi = np.minimum(highs, n - 1)
    seen = np.zeros(n.size, dtype=bool)
    front = np.array(at, dtype=np.int64)
    while front.size:
        seen[front] = True
        run = np.flatnonzero(np.diff(front, prepend=-1) != 1)
        first = np.concatenate([np.minimum.reduceat(lo[front], run),
                                np.minimum.reduceat(front - hi[front], run)])
        last = np.concatenate([np.maximum.reduceat(hi[front], run),
                               np.maximum.reduceat(front - lo[front], run)])
        union = []
        for a, b in sorted(zip(first.tolist(), last.tolist())):
            if union and a <= union[-1][1] + 1:
                union[-1][1] = max(union[-1][1], b)
            else:
                union.append([a, b])
        rows = np.concatenate([np.arange(max(a, 2), b + 1) for a, b in union])
        front = rows[~seen[rows]]
    return np.flatnonzero(seen)


@dataclass(frozen=True)
class MomentTable:
    """Exact first/second/mixed moments of (S_n, K_n, N_n) for n <= n_max.

    ES, EK, EN are the means; VarS ... CovSN the centred second moments the
    accessors return.  A table solved for the rows ``at`` only holds those
    rows: the arrays are filled over their dependency cone alone, and the
    accessors and ``columns`` refuse or skip every other n.
    """

    p: float
    n_max: int
    precision: str
    ES: np.ndarray
    EK: np.ndarray
    EN: np.ndarray
    VarS: np.ndarray
    VarK: np.ndarray
    VarN: np.ndarray
    CovSK: np.ndarray
    CovSN: np.ndarray
    at: tuple | None = None     # the rows solved for; None: all of 0..n_max

    # -- accessors ---------------------------------------------------------
    def _check_n(self, n: int):
        if not (0 <= n <= self.n_max):
            raise IndexError(f"n={n} outside table range 0..{self.n_max}")
        if self.at is not None and n not in self.at:
            raise IndexError(
                f"n={n} is not among the rows solved for, {list(self.at)}")

    def mean_S(self, n: int) -> float:
        self._check_n(n)
        return float(self.ES[n])

    def mean_K(self, n: int) -> float:
        self._check_n(n)
        return float(self.EK[n])

    def mean_N(self, n: int) -> float:
        self._check_n(n)
        return float(self.EN[n])

    def mean_depth(self, n: int) -> float:
        """E(depth of a random external node) = EK(n)/n."""
        self._check_n(n)
        if n < 1:
            raise ValueError("mean_depth needs n >= 1")
        return float(self.EK[n]) / n

    def var_S(self, n: int) -> float:
        self._check_n(n)
        return float(self.VarS[n])

    def var_K(self, n: int) -> float:
        self._check_n(n)
        return float(self.VarK[n])

    def var_N(self, n: int) -> float:
        self._check_n(n)
        return float(self.VarN[n])

    def cov_SK(self, n: int) -> float:
        self._check_n(n)
        return float(self.CovSK[n])

    def cov_SN(self, n: int) -> float:
        self._check_n(n)
        return float(self.CovSN[n])

    def _rho(self, cov: float, va: float, vb: float, n: int) -> float:
        if n < 2 or va <= 0.0 or vb <= 0.0:
            raise DegenerateVariance(f"correlation undefined at n={n}")
        return cov / math.sqrt(va * vb)

    def rho_SK(self, n: int) -> float:
        return self._rho(self.cov_SK(n), self.var_S(n), self.var_K(n), n)

    def rho_SN(self, n: int) -> float:
        return self._rho(self.cov_SN(n), self.var_S(n), self.var_N(n), n)

    # -- columns -----------------------------------------------------------
    COLUMNS = ("n", "ES", "EK", "EN", "VarS", "VarK", "VarN",
               "CovSK", "CovSN", "RhoSK", "RhoSN")

    def arrays(self) -> list:
        """The table by column, in COLUMNS order, as numpy arrays: rows
        0..n_max, or the rows ``at``; n is int64, the rest float64.

        The correlations are nan for n < 2; a variance <= 0 at n >= 2
        raises DegenerateVariance, as the rho accessors do.
        """
        if self.at is None:     # views; the correlations are nan at n < 2
            rows, sel, lead = np.arange(self.n_max + 1), slice(None), 2
        else:                   # each row of at is >= 2
            rows, sel, lead = np.array(self.at), list(self.at), 0
        vs, vk, vn = (getattr(self, k)[sel][lead:] for k in ("VarS", "VarK", "VarN"))
        bad = np.flatnonzero((vs <= 0.0) | (vk <= 0.0) | (vn <= 0.0))
        if bad.size:
            raise DegenerateVariance(
                f"correlation undefined at n={rows[lead + bad[0]]}")
        nan = np.full(lead, math.nan)
        rho_sk = self.CovSK[sel][lead:] / np.sqrt(vs * vk)
        rho_sn = self.CovSN[sel][lead:] / np.sqrt(vs * vn)
        return ([rows] + [getattr(self, k)[sel] for k in self.COLUMNS[1:9]]
                + [np.concatenate([nan, rho_sk]), np.concatenate([nan, rho_sn])])

    def columns(self) -> list:
        """``arrays()`` as lists of Python numbers."""
        return [a.tolist() for a in self.arrays()]


def _row(M: np.ndarray, n: int, lo: int, hi: int, p: float, q: float,
         dtype, ratios: tuple, tiny) -> None:
    """Fill column n of the moment array M, rows in MomentTable.COLUMNS[1:9]
    order, from its columns k and n - k, k in the window [lo, hi]: the one
    step of the recurrence."""
    w = _binom_weights(n, p, q, dtype, lo, hi, ratios)
    if w[0] < tiny or w[-1] < tiny:
        # at tiny p the window reaches past underflow: drop the zero and
        # subnormal weights at its ends (the pmf is unimodal)
        keep = np.flatnonzero(w >= tiny)
        lo, hi = lo + int(keep[0]), lo + int(keep[-1])
        w = w[keep[0]:keep[-1] + 1]
    # the k = 0 and k = n outcomes reproduce the parent (self-terms)
    wb = 0.0
    if lo == 0:
        wb, w, lo = w[0], w[1:], 1
    if hi == n:
        wb, w, hi = wb + w[-1], w[:-1], n - 1
    denom = 1.0 - wb
    # S[:, j] = X(k) + X(n - k) at k = lo + j; the pairwise .sum keeps
    # the order fixed
    S = M[:, lo:hi + 1] + M[:, n - lo:n - hi - 1:-1]
    lin = (S * w).sum(axis=1)
    M[0, n] = ms = (lin[0] + 1.0) / denom
    M[1, n] = mk = (lin[1] + n) / denom
    M[2, n] = mn = (lin[2] + lin[0] + wb * ms) / denom
    # deviations of the conditional means from the new means, O(sqrt Var)
    D = S[:3]
    D[2] += D[0]             # N's toll is the two subtree sizes
    D[0] += 1.0 - ms
    D[1] += n - mk
    D[2] -= mn
    Q = (D * w) @ D.T
    M[3, n] = vss = (lin[3] + Q[0, 0] + wb) / denom
    M[4, n] = (lin[4] + Q[1, 1] + wb * (float(n) * n)) / denom
    M[6, n] = (lin[6] + Q[0, 1] + wb * n) / denom
    M[7, n] = vsn = (lin[7] + lin[3] + Q[0, 2] + wb * (vss + ms)) / denom
    M[5, n] = (lin[5] + 2.0 * lin[7] + lin[3] + Q[2, 2]
               + wb * (2.0 * vsn + vss + ms * ms)) / denom


def _waves(rows: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> list:
    """Split the sorted rows into maximal runs rows[a:b] of rows that read
    no row of their own run; returns the bounds [a, b) of each run.

    Row n reads the rows k and n - k for k in its window clipped to 1..n-1,
    so at most row max(n - max(lo, 1), min(hi, n - 1)).  A run that starts
    at row s holds the following rows while the running maximum of that
    last read stays below s; as every earlier row reads below s too, that
    is the running maximum over all rows, and each run ends where it first
    reaches s.
    """
    last = np.maximum(rows - np.maximum(lows[rows], 1),
                      np.minimum(highs[rows], rows - 1))
    reach = np.maximum.accumulate(last).tolist()    # each below its row
    starts, a = [], 0
    while a < rows.size:
        starts.append(a)
        a = bisect.bisect_left(reach, int(rows[a]), a + 1)
    return list(zip(starts, starts[1:] + [rows.size]))


def _compute_centred(p: float, q: float, n_max: int, rows: np.ndarray,
                     lows: np.ndarray, highs: np.ndarray, dtype) -> dict:
    """Fill the moment rows ``rows`` (sorted, each >= 2, closed under the
    dependencies of the windows ``lows``, ``highs``) of an (8, n_max + 1)
    array M in ``dtype``, shared with the worker processes; every other row
    stays zero.

    The rows before the first wave of _WAVE_ROWS rows are solved here, one
    after another.  Each later wave of ``_waves`` is dealt out row by row
    (``fork.run``'s ``deal``, which groups the rows into runs), each run to
    the first worker free, before the rows of the next; ``fork.run`` picks
    the workers, at most one per _WORKER_CELLS cells of the waves.
    """
    waves = _waves(rows, lows, highs)
    first = next((a for a, b in waves if b - a >= _WAVE_ROWS), rows.size)
    waves = [(a, b) for a, b in waves if a >= first]
    wave_cells = int((highs[rows[first:]] - lows[rows[first:]] + 1).sum())
    M = fork.shared((8, n_max + 1), dtype)
    ratios = _ratio_tables(n_max, p, q, dtype)
    tiny = np.finfo(dtype).tiny
    ns, lows, highs = rows.tolist(), lows.tolist(), highs.tolist()
    for n in ns[:first]:
        _row(M, n, lows[n], highs[n], p, q, dtype, ratios, tiny)

    def work(deal):
        for a, b in waves:
            for i in deal(b - a):
                n = ns[a + i]
                _row(M, n, lows[n], highs[n], p, q, dtype, ratios, tiny)

    fork.run(work, wave_cells // _WORKER_CELLS)
    return dict(zip(MomentTable.COLUMNS[1:9], M))


def _integer(v, name: str) -> int:
    """v as a Python int; a float or any other non-integer is refused."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {v!r}") from None


def compute(p: float, n_max: int, precision: str = "standard",
            at=None) -> MomentTable:
    """Solve the moment recurrences exactly at fixed p, for all n <= n_max,
    or with ``at``, rows in 2..n_max, over the dependency cone of those rows
    alone (``_cone``); the table then holds only the rows ``at``.  Either
    way each row is bit-identical to the full table's.  A solve above the
    budget (_MAX_CELLS split outcomes or _MAX_M_BYTES of moment array) is
    refused with WorkBudgetExceeded before any DP work.
    """
    p_eff, q_eff = _canonical(p)
    n_max = _integer(n_max, "n_max")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if at is not None:
        at = tuple(sorted({_integer(n, "a row of at") for n in at}))
        if not at or at[0] < 2 or at[-1] > n_max:
            raise ValueError("at must hold rows in 2..n_max")
    if precision not in ("standard", "extended"):
        raise ValueError("precision must be 'standard' or 'extended'")
    dtype = np.float64
    if precision == "extended":
        dtype = _EXTENDED
        bits = np.finfo(dtype).nmant + 1
        if bits < 64:
            raise ValueError(
                "precision 'extended' needs a long double with a 64-bit "
                f"significand; this platform's has {bits} bits")
    m_bytes = 8 * (n_max + 1) * np.dtype(dtype).itemsize
    if m_bytes > _MAX_M_BYTES:
        raise WorkBudgetExceeded(
            f"the moment array to n={n_max} takes {m_bytes} bytes, above the "
            f"budget of {_MAX_M_BYTES}")
    lows, highs = _windows(n_max, p_eff)
    rows = np.arange(2, n_max + 1) if at is None else _cone(at, lows, highs)
    cells = int((highs[rows] - lows[rows] + 1).sum())
    cost = cells * (_EXTENDED_CELL_COST if precision == "extended" else 1)
    if cost > _MAX_CELLS:
        weight = "" if cost == cells else (
            f" in extended precision, weighed as {cost} standard ones")
        raise WorkBudgetExceeded(
            f"the DP over {rows.size} rows sums {cells} split outcomes"
            f"{weight}, above the budget of {_MAX_CELLS}")
    t = _compute_centred(p_eff, q_eff, n_max, rows, lows, highs, dtype)
    return MomentTable(p=p, n_max=n_max, precision=precision, at=at,
                       **{k: v.astype(np.float64, copy=False) for k, v in t.items()})
