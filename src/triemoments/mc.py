"""Monte-Carlo estimation of trie shape moments, whitening and diagnostics.

Trials are drawn in batches of G(n) = clamp(2**16 // n, 1, 1024) consecutive
trials, so a batch holds about 2**16 keys.  Batch b covers trials
[b*G, (b+1)*G) and draws all of them from its own counter-derived stream
``trie.trial_rng(seed, b)``.  The batch is the stream unit: a sample matrix
of k*G trials is a prefix of any longer one with the same seed, and a last,
shorter batch is drawn with fewer tries from its stream.  Consecutive
batches share one ``trie.sample_shapes`` call, up to ``_CALL_KEYS`` = 2**17
keys and ``_MAX_BATCH`` tries a call (one batch at least), so they share the
sampler's level loop while each still draws from its own stream; this
bounds a call's memory and changes no sample.  The calls are split into k
contiguous shares, one per worker process: this process draws the first
share, and k - 1 ``os.fork`` children draw the others and send their rows
back through pipes, so k changes no sample either.  k is one per CPU
(``os.sched_getaffinity``), at most one per call, at most one per
``_WORKER_KEYS`` = 2**20 keys of the run (about 0.15 s of drawing against
a fork round trip of about 6 ms), and few enough that k calls together hold
at most ``_MAX_KEYS`` keys.  So small runs, and runs pinned to one CPU
(``taskset -c 0``), draw in this process alone.  Before drawing, ``check``
refuses n < 2, too few trials, a bad p or a seed outside [0, 2**128) with
ValueError, and with WorkBudgetExceeded a run whose batches would hold a
trie of more than ``_MAX_KEYS`` keys or run for more than ``_MAX_LEVELS``
levels; ``whiten`` and the CLI's ``compare`` call it before they solve an
exact row.

Every command reduces the full sample matrix (trials x 3 int64, 24 B per
trial) once, through one centring helper: ``summary`` (and ``run``, its
value on a fresh sample) for the moments, ``whiten`` and
``joint_histogram`` for their centring and standardisation,
``marginal_diagnostics`` for the whitened marginals.  Each returns its
result document, a dict of Python numbers; the CLI alone adds the
configuration and writes it as JSON or CSV.
"""

from __future__ import annotations

import math
import os
import pickle

import numpy as np

from . import asym, exact
from .asym import SymMatrix2, invsqrt2
from .errors import DegenerateVariance, TrieMomentsError, WorkBudgetExceeded
from .trie import _alias_tables, check_seed, sample_shapes, trial_rng

_BATCH_KEYS = 2 ** 16
_MAX_BATCH = 1024
_CALL_KEYS = 2 ** 17     # keys one sample_shapes call draws, over its batches
_SQRT2 = math.sqrt(2.0)
# Budget of one batch.  Its memory follows its widest level, about 15 B a
# key at p = 1/2 (less at skewed p), so 2**24 keys take about 240 MiB.  The
# worker processes' calls hold at most _MAX_KEYS keys together, so a run of
# several workers stays within the same memory.  Its time at tiny p follows
# its height: a level costs 60-120 us (2-core box, n = 2..1e5, p = 1e-4 and
# 1e-3), so 1e6 levels take one to two minutes.
_MAX_KEYS = 2 ** 24
_MAX_LEVELS = 10 ** 6
_WORKER_KEYS = 2 ** 20   # keys of the run per worker process, at least


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _batch_size(n: int) -> int:
    """Trials per batch, G(n) = clamp(2**16 // n, 1, 1024)."""
    return min(max(_BATCH_KEYS // max(n, 1), 1), _MAX_BATCH)


def _batch_height(n: int, p: float, g: int) -> float:
    """Expected height of a batch of g tries of n keys: the g n(n-1)/2 key
    pairs each share k more bits with probability (p^2 + q^2)^k, so the
    longest shared prefix is about log(g n(n-1)/2) / -log(p^2 + q^2)."""
    return math.log(g * n * (n - 1) / 2) / -math.log1p(-2.0 * p * (1.0 - p))


def check(n: int, p: float, trials: int, seed: int, least: int) -> None:
    """Refuse a Monte-Carlo run before any work: n < 2, fewer than ``least``
    trials, a bad p or a bad seed (``trie.check_seed``) with ValueError, and
    with WorkBudgetExceeded a batch with a trie of more than _MAX_KEYS keys
    or an expected height (``_batch_height``) above _MAX_LEVELS levels."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if trials < least:
        raise ValueError(f"trials must be >= {least}")
    exact._canonical(p)
    if n > _MAX_KEYS:
        raise WorkBudgetExceeded(
            f"n={n}: a trie of more than {_MAX_KEYS} keys is above the "
            f"Monte-Carlo budget (memory of about 15 B a key)")
    levels = _batch_height(n, p, min(_batch_size(n), trials))
    if levels > _MAX_LEVELS:
        raise WorkBudgetExceeded(
            f"n={n}, p={p}: a batch of tries is expected to run for "
            f"{levels:.2g} levels, above the Monte-Carlo budget of "
            f"{_MAX_LEVELS} levels")
    check_seed(seed)


def _cpus() -> int:
    """CPUs this process may run on; 1 where os.fork or affinity is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def sample_matrix(n: int, p: float, trials: int, seed: int) -> np.ndarray:
    """(trials, 3) matrix of (S, K, N) samples, deterministic per seed.

    ``check``s its inputs with a floor of 2 trials, then draws consecutive
    batches together, as many per ``sample_shapes`` call as keep the call
    within _CALL_KEYS keys and _MAX_BATCH tries (one batch at least).  The
    calls are split into k contiguous shares, k = max(1, min(CPUs, calls,
    trials n // _WORKER_KEYS, _MAX_KEYS // keys a call)), drawn by
    ``_draw_forked``; every row is the same for every k.
    """
    check(n, p, trials, seed, 2)
    g = _batch_size(n)
    per_call = max(min(_CALL_KEYS // (g * n), _MAX_BATCH // g), 1)
    batches = -(-trials // g)
    starts = range(0, batches, per_call)    # first batch of each call
    k = max(1, min(_cpus(), len(starts), trials * n // _WORKER_KEYS,
                   _MAX_KEYS // (per_call * g * n)))
    out = np.empty((trials, 3), dtype=np.int64)

    def draw(share):
        for b0 in share:
            group = range(b0, min(b0 + per_call, batches))
            counts = [min(g, trials - b * g) for b in group]
            rows = sample_shapes(n, p, counts,
                                 [trial_rng(seed, b) for b in group])
            out[b0 * g:b0 * g + len(rows)] = rows[:, :3]

    shares = []
    for i in range(k):
        share = starts[i * len(starts) // k:(i + 1) * len(starts) // k]
        rows = slice(share[0] * g, min((share[-1] + per_call) * g, trials))
        shares.append((share, rows))
    _alias_tables(p)    # built before any fork, so the workers inherit it
    _draw_forked(out, draw, shares)
    return out


def _draw_forked(out: np.ndarray, draw, shares) -> None:
    """Fill ``out`` by ``draw(share)`` for each (share, rows) of ``shares``,
    where draw(share) fills out[rows].

    This process draws the first share; each other is drawn by an
    ``os.fork`` child, which sends out[rows], or the exception draw raised,
    pickled through a pipe and leaves by ``os._exit``.  Fork, not spawn: a
    child inherits the imports and caches, and draws with numpy's random
    and element-wise code only, never with the BLAS threads a fork leaves
    behind.  The results are read in share order, and a child's exception
    is raised here unchanged; a child that ends without a result raises
    TrieMomentsError naming it.  Every child is reaped before this returns
    or raises, and killed first if anything failed.
    """
    children = []       # (pid, read end, rows)
    try:
        for share, rows in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    try:
                        draw(share)
                        result = out[rows]
                    except Exception as e:      # raised again by the parent
                        result = e
                    data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
                    with os.fdopen(w, "wb") as f:
                        f.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb"), rows))
        draw(shares[0][0])
        for pid, f, rows in children:
            try:
                result = pickle.load(f)
            except (EOFError, pickle.UnpicklingError):
                raise TrieMomentsError(
                    f"worker process {pid} (trials {rows.start}.."
                    f"{rows.stop - 1}) ended without a result") from None
            if isinstance(result, BaseException):
                raise result
            out[rows] = result
    except BaseException:
        from signal import SIGKILL      # imported on failure only
        for pid, _, _ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, f, _ in children:
            f.close()
            os.waitpid(pid, 0)


def _centre(x: np.ndarray):
    """(mean, centred rows, comoment sums, skewness, excess kurtosis) of the
    columns of a (trials, k) int64 or float64 sample, from one centring.

    For int64 input the column sums are exact, so the means are correctly
    rounded, and the integer shift rint(mean) is subtracted exactly from
    integer-valued float64.  The residual mean is then removed from the
    C-contiguous (k, trials) copy, and every sum runs along its last axis,
    where numpy sums pairwise; the comoments come from row products, not
    from a matrix product.
    """
    m = len(x)
    mean = x.sum(axis=0) / m
    y = np.ascontiguousarray(x.T, dtype=np.float64)
    y -= np.rint(mean)[:, None]
    y -= (y.sum(axis=1) / m)[:, None]
    m2 = np.array([[(a * b).sum() for b in y] for a in y])
    m3, m4 = np.empty((2, len(y)))
    for i, r in enumerate(y):   # products, not r ** 3 and r ** 4
        r2 = r * r
        m4[i] = (r2 * r2).sum() / m
        r2 *= r
        m3[i] = r2.sum() / m
    var = np.diag(m2) / m
    with np.errstate(invalid="ignore", divide="ignore"):
        return mean, y, m2, m3 / var ** 1.5, m4 / var ** 2 - 3.0


def _rho(c: np.ndarray, i: int, j: int) -> float:
    """Correlation of columns i and j from their (co)moment matrix c."""
    return float(c[i, j] / math.sqrt(c[i, i] * c[j, j]))


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def summary(x: np.ndarray) -> dict:
    """The moment document of a (trials, 3) sample of (S, K, N): means,
    unbiased covariance, correlations, per-coordinate skewness and excess
    kurtosis, and standard errors of the means, as Python numbers."""
    trials = len(x)
    mean, _, m2, skew, kurt = _centre(x)
    cov = m2 / (trials - 1)
    return {"mean": dict(zip("SKN", mean.tolist())), "cov": cov.tolist(),
            "rho": {"SK": _rho(cov, 0, 1), "SN": _rho(cov, 0, 2),
                    "KN": _rho(cov, 1, 2)},
            "skewness": skew.tolist(), "ex_kurtosis": kurt.tolist(),
            "stderr_mean": np.sqrt(np.diag(cov) / trials).tolist()}


def run(n: int, p: float, trials: int, seed: int = 0) -> dict:
    """``summary`` of ``trials`` independent tries (at least 100)."""
    check(n, p, trials, seed, 100)
    return summary(sample_matrix(n, p, trials, seed))


# ---------------------------------------------------------------------------
# normality / whitening diagnostics
# ---------------------------------------------------------------------------

def ks_normal(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample to the standard normal."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    m = len(xs)
    u = 0.5 * (1.0 + np.array([math.erf(v / _SQRT2) for v in xs]))
    i = np.arange(1, m + 1)
    return float(max((i / m - u).max(), (u - (i - 1) / m).max()))


def marginal_diagnostics(values: np.ndarray):
    """(skewness, excess kurtosis, KS distance) of a standardized sample.

    Raises DegenerateVariance for (near-)constant input.
    """
    _, y, m2, skew, kurt = _centre(np.asarray(values, dtype=np.float64)[:, None])
    sd = math.sqrt(m2[0, 0] / len(values))
    if sd == 0.0 or not math.isfinite(sd):
        raise DegenerateVariance("zero variance marginal")
    return float(skew[0]), float(kurt[0]), ks_normal(y[0] / sd)


def whiten(n: int, p: float, trials: int, seed: int = 0,
           source: str = "exact") -> dict:
    """Whiten centered (S, K) by the inverse square root of a covariance
    matrix, and diagnose the whitened covariance and marginals.

    source="exact" uses the finite-n matrix of the exact row n, solved over
    its dependency cone, and exact means for centering; source="sample"
    estimates both from the trials themselves; source="asymptotic" uses the
    fluctuation-sum matrix (p = 1/2 only) with sample means for centering,
    since mean-level fluctuation constants are out of scope.  The inputs
    are ``check``ed, and the exact or asymptotic matrix formed, before any
    trie is drawn, so a refused solve costs no Monte-Carlo work.
    """
    if source not in ("exact", "sample", "asymptotic"):
        raise ValueError("source must be exact, sample or asymptotic")
    check(n, p, trials, seed, 2)
    if source == "exact":
        table = exact.compute(p, n, at=[n])
        center = (table.mean_S(n), table.mean_K(n))
        sigma = SymMatrix2(a=table.var_S(n), b=table.cov_SK(n), c=table.var_K(n))
    elif source == "asymptotic":
        sigma = asym.sigma_matrix(asym.params(p), n)
    x = sample_matrix(n, p, trials, seed)[:, :2]
    if source != "exact":
        mean, _, m2, _, _ = _centre(x)
        center = tuple(mean)
    if source == "sample":
        cov = m2 / (trials - 1)
        sigma = SymMatrix2(a=cov[0, 0], b=cov[0, 1], c=cov[1, 1])
    w = invsqrt2(sigma)  # NotPositiveDefinite propagates (e.g. n=2 sample)
    y = w.apply(x - np.array(center))
    wcov = (y.T @ y) / (trials - 1)
    skew, kurt, edf = zip(*(marginal_diagnostics(col) for col in y.T))
    a, b, c = (float(v) for v in (sigma.a, sigma.b, sigma.c))
    return {"sigma": [[a, b], [b, c]], "center": list(map(float, center)),
            "whitened_cov": wcov.tolist(),
            "max_offdiag": float(abs(wcov[0, 1])), "skewness": list(skew),
            "ex_kurtosis": list(kurt), "edf_distance": list(edf)}


# ---------------------------------------------------------------------------
# joint histogram
# ---------------------------------------------------------------------------

def joint_histogram(n: int, p: float, trials: int, seed: int = 0,
                    bins: int = 50) -> dict:
    """2-D histogram of per-coordinate standardized (S, K): their
    correlation, the bin edges and the (bins, bins) counts, row-major."""
    if bins < 10:
        raise ValueError("bins must be >= 10")
    if bins > trials:
        raise ValueError("bins must be <= trials")
    _, y, m2, _, _ = _centre(sample_matrix(n, p, trials, seed)[:, :2])
    sd = np.sqrt(np.diag(m2) / trials)
    if (sd == 0.0).any():
        raise DegenerateVariance("constant marginal; cannot standardize")
    z = y / sd[:, None]
    counts, s_edges, k_edges = np.histogram2d(z[0], z[1], bins=bins)
    return {"rho": _rho(m2, 0, 1), "s_edges": s_edges.tolist(),
            "k_edges": k_edges.tolist(),
            "counts": counts.astype(np.int64).tolist()}
