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
bounds a call's memory and changes no sample.  Before drawing, ``check``
refuses n < 2, too few trials or a bad p with ValueError, and with
WorkBudgetExceeded a run whose batches would hold a trie of more than
``_MAX_KEYS`` keys or run for more than ``_MAX_LEVELS`` levels; the CLI
calls it before building an exact table.

Every command reduces the full sample matrix (trials x 3 int64, 24 B per
trial) once, through one centring helper: ``run`` for the mean, covariance,
skewness and excess kurtosis, ``whiten`` and ``joint_histogram`` for their
centring and standardisation, ``marginal_diagnostics`` for the whitened
marginals.  Each result's ``doc()`` gives its payload as Python numbers;
the CLI alone adds the configuration and writes it as JSON or CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asym, exact
from .asym import SymMatrix2, invsqrt2
from .errors import DegenerateVariance, WorkBudgetExceeded
from .trie import sample_shapes, trial_rng

_BATCH_KEYS = 2 ** 16
_MAX_BATCH = 1024
_CALL_KEYS = 2 ** 17     # keys one sample_shapes call draws, over its batches
_SQRT2 = math.sqrt(2.0)
# Budget of one batch.  Its memory follows its widest level, about 15 B a
# key at p = 1/2 (less at skewed p), so 2**24 keys take about 240 MiB.  Its
# time at tiny p follows its height: a level costs 60-120 us (2-core box,
# n = 2..1e5, p = 1e-4 and 1e-3), so 1e6 levels take one to two minutes.
_MAX_KEYS = 2 ** 24
_MAX_LEVELS = 10 ** 6


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


def check(n: int, p: float, trials: int, least: int) -> None:
    """Refuse a Monte-Carlo run before any work: n < 2, fewer than ``least``
    trials or a bad p with ValueError, and with WorkBudgetExceeded a batch
    with a trie of more than _MAX_KEYS keys or an expected height
    (``_batch_height``) above _MAX_LEVELS levels."""
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


def sample_matrix(n: int, p: float, trials: int, seed: int) -> np.ndarray:
    """(trials, 3) matrix of (S, K, N) samples, deterministic per seed.

    ``check``s its inputs with a floor of 2 trials, then draws consecutive
    batches together, as many per ``sample_shapes`` call as keep the call
    within _CALL_KEYS keys and _MAX_BATCH tries (one batch at least).
    """
    check(n, p, trials, 2)
    g = _batch_size(n)
    per_call = max(min(_CALL_KEYS // (g * n), _MAX_BATCH // g), 1)
    batches = -(-trials // g)
    out = np.empty((trials, 3), dtype=np.int64)
    for b0 in range(0, batches, per_call):
        group = range(b0, min(b0 + per_call, batches))
        counts = [min(g, trials - b * g) for b in group]
        rows = sample_shapes(n, p, counts, [trial_rng(seed, b) for b in group])
        out[b0 * g:b0 * g + len(rows)] = rows[:, :3]
    return out


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
    m3, m4 = (np.array([(r ** e).sum() for r in y]) / m for e in (3, 4))
    var = np.diag(m2) / m
    with np.errstate(invalid="ignore", divide="ignore"):
        return mean, y, m2, m3 / var ** 1.5, m4 / var ** 2 - 3.0


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleSummary:
    mean: np.ndarray          # (S, K, N)
    cov: np.ndarray           # (3,3) unbiased
    skewness: np.ndarray      # standardized, per coordinate
    ex_kurtosis: np.ndarray
    stderr_mean: np.ndarray

    _IDX = {"S": 0, "K": 1, "N": 2}

    def rho(self, a: str, b: str) -> float:
        i, j = self._IDX[a], self._IDX[b]
        return float(self.cov[i, j] / math.sqrt(self.cov[i, i] * self.cov[j, j]))

    def doc(self) -> dict:
        """The summary as Python numbers, for the result document."""
        return {
            "mean": dict(zip("SKN", self.mean.tolist())),
            "cov": self.cov.tolist(),
            "rho": {"SK": self.rho("S", "K"), "SN": self.rho("S", "N"),
                    "KN": self.rho("K", "N")},
            "skewness": self.skewness.tolist(),
            "ex_kurtosis": self.ex_kurtosis.tolist(),
            "stderr_mean": self.stderr_mean.tolist(),
        }


def run(n: int, p: float, trials: int, seed: int = 0,
        raw_dump=None) -> SampleSummary:
    """Estimate joint moments of (S, K, N) from ``trials`` independent tries."""
    check(n, p, trials, 100)
    x = sample_matrix(n, p, trials, seed)
    if raw_dump is not None:
        for t, row in enumerate(x.tolist()):
            raw_dump.write(f"{t},{row[0]},{row[1]},{row[2]}\n")
    mean, _, m2, skew, kurt = _centre(x)
    cov = m2 / (trials - 1)
    return SampleSummary(
        mean=mean, cov=cov, skewness=skew, ex_kurtosis=kurt,
        stderr_mean=np.sqrt(np.diag(cov) / trials))


# ---------------------------------------------------------------------------
# normality / whitening diagnostics
# ---------------------------------------------------------------------------

def _phi(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.array([math.erf(v / _SQRT2) for v in x]))


def ks_normal(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample to the standard normal."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    m = len(xs)
    u = _phi(xs)
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


@dataclass(frozen=True)
class WhitenReport:
    sigma: SymMatrix2           # the covariance matrix that was inverted
    center: tuple               # (E S, E K) used for centering
    whitened_cov: np.ndarray    # (2,2)
    max_offdiag: float
    skewness: tuple             # whitened marginals
    ex_kurtosis: tuple
    edf_distance: tuple

    def doc(self) -> dict:
        """The report as Python numbers, for the result document."""
        a, b, c = (float(v) for v in (self.sigma.a, self.sigma.b, self.sigma.c))
        return {
            "sigma": [[a, b], [b, c]],
            "center": list(map(float, self.center)),
            "whitened_cov": self.whitened_cov.tolist(),
            "max_offdiag": self.max_offdiag,
            "skewness": list(self.skewness),
            "ex_kurtosis": list(self.ex_kurtosis),
            "edf_distance": list(self.edf_distance),
        }


def whiten(n: int, p: float, trials: int, seed: int = 0, source: str = "exact",
           table: exact.MomentTable | None = None) -> WhitenReport:
    """Whiten centered (S, K) by the inverse square root of a covariance matrix.

    source="exact" uses the finite-n matrix from the moment table (computed
    on demand when not supplied) and exact means for centering;
    source="sample" estimates both from the trials themselves;
    source="asymptotic" uses the fluctuation-sum matrix (p = 1/2 only) with
    sample means for centering, since mean-level fluctuation constants are
    out of scope.
    """
    if source not in ("exact", "sample", "asymptotic"):
        raise ValueError("source must be exact, sample or asymptotic")
    x = sample_matrix(n, p, trials, seed)[:, :2]
    if source == "exact":
        if table is None:
            table = exact.compute(p, n)
        elif table.n_max < n or table.p != p:
            raise ValueError("supplied table does not cover (n, p)")
        center = (table.mean_S(n), table.mean_K(n))
        sigma = SymMatrix2(a=table.var_S(n), b=table.cov_SK(n), c=table.var_K(n))
    else:
        mean, _, m2, _, _ = _centre(x)
        center = tuple(mean)
        if source == "sample":
            cov = m2 / (trials - 1)
            sigma = SymMatrix2(a=cov[0, 0], b=cov[0, 1], c=cov[1, 1])
        else:
            sigma = asym.sigma_matrix(asym.params(p), n)
    w = invsqrt2(sigma)  # NotPositiveDefinite propagates (e.g. n=2 sample)
    y = w.apply(x - np.array(center))
    wcov = (y.T @ y) / (trials - 1)
    skew, kurt, edf = zip(*(marginal_diagnostics(col) for col in y.T))
    return WhitenReport(
        sigma=sigma, center=center, whitened_cov=wcov,
        max_offdiag=float(abs(wcov[0, 1])), skewness=skew, ex_kurtosis=kurt,
        edf_distance=edf)


# ---------------------------------------------------------------------------
# joint histogram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointHistogram:
    counts: np.ndarray      # (bins, bins), row-major over standardized (S, K)
    s_edges: np.ndarray
    k_edges: np.ndarray
    rho: float

    def doc(self) -> dict:
        """The histogram as Python numbers, for the result document."""
        return {
            "rho": self.rho,
            "s_edges": self.s_edges.tolist(),
            "k_edges": self.k_edges.tolist(),
            "counts": self.counts.tolist(),
        }


def joint_histogram(n: int, p: float, trials: int, seed: int = 0,
                    bins: int = 50) -> JointHistogram:
    """2-D histogram of per-coordinate standardized (S, K)."""
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
    rho = float(m2[0, 1] / math.sqrt(m2[0, 0] * m2[1, 1]))
    return JointHistogram(counts=counts.astype(np.int64),
                          s_edges=s_edges, k_edges=k_edges, rho=rho)
