"""Monte-Carlo estimation of trie shape moments, whitening and diagnostics.

Trials are drawn in batches of G(n) = clamp(2**17 // n, 1, 1024) consecutive
trials, so a batch holds about 2**17 keys.  Batch b covers trials
[b*G, (b+1)*G) and draws all of them in one ``trie.sample_shapes`` call from
its own counter-derived stream ``trie.trial_rng(seed, b)``.  The batch is
the stream unit: a sample matrix of k*G trials is a prefix of any longer one
with the same seed, and a last, shorter batch is drawn with fewer tries from
its stream.  ``fork.run``'s ``deal`` hands the batches out to k workers,
this process and k - 1 forked children, each batch to the first worker
free, so a worker on a slower CPU draws fewer; each draws straight into
the sample matrix, which lives in shared memory (``fork.shared``), so k
changes no sample.  k is one per CPU (``fork.cpus``), at most one per
batch, at most one per ``_WORKER_KEYS`` = 2**20 keys of the run (about
0.15 s of drawing against a fork round trip of about 6 ms), and few enough
that k batches together hold at most ``_MAX_KEYS`` keys.  So small runs,
and runs pinned to one CPU (``taskset -c 0``), draw in this process
alone.  ``sample_beside`` draws the matrices of several n by the same
per-batch code (``_batches``) in one deal whose index 0 is another task,
kept by this process: the CLI's ``compare`` solves its exact cone there
while the workers draw.  Before drawing, ``check`` refuses n < 2, too few
trials, a bad p or a seed outside [0, 2**128) with ValueError, and with
WorkBudgetExceeded a run whose batches would hold a trie of more than
``_MAX_KEYS`` keys or run for more than ``_MAX_LEVELS`` levels; ``whiten``
and the CLI's ``compare`` call it before they solve an exact row or fork.

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
from functools import partial

import numpy as np

from . import asym, exact, fork
from .asym import SymMatrix2, invsqrt2
from .errors import DegenerateVariance, WorkBudgetExceeded
from .trie import _alias_tables, check_seed, sample_shapes, trial_rng

_BATCH_KEYS = 2 ** 17
_MAX_BATCH = 1024
_SQRT2 = math.sqrt(2.0)
# Budget of one batch.  Its memory follows its widest level, about 15 B a
# key at p = 1/2 (less at skewed p), so 2**24 keys take about 240 MiB.  The
# worker processes' batches hold at most _MAX_KEYS keys together, so a run
# of several workers stays within the same memory.  Its time at tiny p
# follows its height: a level costs 60-120 us (2-core box, n = 2..1e5,
# p = 1e-4 and 1e-3), so 1e6 levels take one to two minutes.
_MAX_KEYS = 2 ** 24
_MAX_LEVELS = 10 ** 6
_WORKER_KEYS = 2 ** 20   # keys of the run per worker process, at least


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _batch_size(n: int) -> int:
    """Trials per batch, G(n) = clamp(2**17 // n, 1, 1024)."""
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


def _batches(n: int, p: float, trials: int, seed: int):
    """(the shared (trials, 3) sample matrix, its batch count, draw), where
    draw(b) draws batch b with one ``sample_shapes`` call into its rows."""
    g = _batch_size(n)
    out = fork.shared((trials, 3), np.int64)

    def draw(b):
        rows = sample_shapes(n, p, min(g, trials - b * g), trial_rng(seed, b))
        out[b * g:b * g + len(rows)] = rows[:, :3]

    return out, -(-trials // g), draw


def sample_matrix(n: int, p: float, trials: int, seed: int) -> np.ndarray:
    """(trials, 3) matrix of (S, K, N) samples, deterministic per seed.

    ``check``s its inputs with a floor of 2 trials, then draws each batch
    with one ``sample_shapes`` call, dealt by ``fork.run`` to k workers, k =
    max(1, min(CPUs, batches, trials n // _WORKER_KEYS, _MAX_KEYS // keys a
    batch)), each batch to the first worker free, into the shared matrix;
    every row is the same for every k.
    """
    check(n, p, trials, seed, 2)
    out, batches, draw = _batches(n, p, trials, seed)
    k = max(1, min(fork.cpus(), batches, trials * n // _WORKER_KEYS,
                   _MAX_KEYS // (_batch_size(n) * n)))

    def work(deal):
        for b in deal(batches):
            draw(b)

    _alias_tables(p)    # built before any fork, so the workers inherit it
    fork.run(k, work)
    return out


def sample_beside(task, ns, p: float, trials: int, seed: int):
    """(task(), [sample_matrix(n, p, trials, seed) for n in ns]), with
    ``task`` run while the samples are drawn, for inputs already
    ``check``ed.

    One ``fork.run`` deals index 0, ``task``, and then every batch of every
    n, in order, to k = max(1, min(CPUs, 1 + batches, _MAX_KEYS // keys of
    the largest batch)) workers.  This process takes index 0, so ``task``'s
    result stays here and a ``task`` that forks (a large exact solve) forks
    from here.  With one worker, ``task`` runs first.  Every matrix,
    len(ns) x trials x 24 B, is allocated before ``task`` starts.
    """
    try:
        draws = [_batches(n, p, trials, seed) for n in ns]
    except MemoryError:     # task's own refusal first, as in one process
        task()
        raise
    got = []
    jobs = [lambda: got.append(task())] + [
        partial(draw, b) for _, batches, draw in draws for b in range(batches)]
    k = max(1, min(fork.cpus(), len(jobs),
                   _MAX_KEYS // max(_batch_size(n) * n for n in ns)))

    def work(deal):
        for i in deal(len(jobs)):
            jobs[i]()

    # no _alias_tables(p) here: this process starts on task, and the
    # tables are built by the first batch a process draws
    fork.run(k, work)
    return got[0], [out for out, _, _ in draws]


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
    are ``check``ed, and the exact or asymptotic matrix solved and its
    inverse square root formed, before any trie is drawn, so a refused
    solve or a singular matrix (NotPositiveDefinite, as at n = 2, where
    K = 2S) costs no Monte-Carlo work.
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
    if source != "sample":
        w = invsqrt2(sigma)  # NotPositiveDefinite propagates (e.g. n=2 exact)
    x = sample_matrix(n, p, trials, seed)[:, :2]
    if source != "exact":
        mean, _, m2, _, _ = _centre(x)
        center = tuple(mean)
    if source == "sample":
        cov = m2 / (trials - 1)
        sigma = SymMatrix2(a=cov[0, 0], b=cov[0, 1], c=cov[1, 1])
        w = invsqrt2(sigma)
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
