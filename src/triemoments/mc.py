"""Monte-Carlo estimation of trie shape moments, whitening and diagnostics.

Trials are drawn in batches of G(n) = clamp(2**15 // n, 1, 1024) consecutive
trials, so a batch holds about 2**15 keys, bounding its memory.  Batch b covers
trials [b*G, (b+1)*G) and draws all of them with one ``trie.sample_shapes``
call from its own counter-derived stream ``trie.trial_rng(seed, b)``.  The
batch is the stream unit: a sample matrix of k*G trials is a prefix of any
longer one with the same seed, and a last, shorter batch is drawn with
fewer tries from its stream.  ``run`` and ``sample_matrix`` share the batch
loop; ``run`` reduces each batch to a moment accumulator and merges the
accumulators in trial order.

``run`` streams: memory is bounded by the batch size.  ``whiten``,
``joint_histogram`` and ``normality_report`` keep the per-trial matrix
(trials x 3 int64) because sorting-based diagnostics need it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import asym, exact
from .asym import SymMatrix2, invsqrt2
from .errors import DegenerateVariance, NotPositiveDefinite
from .trie import sample_shapes, trial_rng

_BATCH_KEYS = 2 ** 15
_MAX_BATCH = 1024
_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _batch_size(n: int) -> int:
    """Trials per batch, G(n) = clamp(2**15 // n, 1, 1024)."""
    return min(max(_BATCH_KEYS // max(n, 1), 1), _MAX_BATCH)


def _batches(n: int, p: float, trials: int, seed: int):
    """Yield (first trial, (count, 3) rows of S, K, N) batch by batch."""
    g = _batch_size(n)
    for b, start in enumerate(range(0, trials, g)):
        rows = sample_shapes(n, p, min(g, trials - start), trial_rng(seed, b))
        yield start, rows[:, :3]


def sample_matrix(n: int, p: float, trials: int, seed: int) -> np.ndarray:
    """(trials, 3) matrix of (S, K, N) samples, deterministic per seed."""
    if trials < 2:
        raise ValueError("trials must be >= 2")
    out = np.empty((trials, 3), dtype=np.int64)
    for start, x in _batches(n, p, trials, seed):
        out[start:start + len(x)] = x
    return out


# ---------------------------------------------------------------------------
# streaming accumulator
# ---------------------------------------------------------------------------

@dataclass
class _MomentAcc:
    """Count, mean vector, centered comoment matrix and 3rd/4th powers."""

    count: int
    mean: np.ndarray   # (3,)
    m2: np.ndarray     # (3,3) sum of centered outer products
    m3: np.ndarray     # (3,) per-coordinate sum of centered cubes
    m4: np.ndarray     # (3,)

    @classmethod
    def from_samples(cls, x: np.ndarray) -> "_MomentAcc":
        x = np.asarray(x, dtype=np.float64)
        mean = x.mean(axis=0)
        xc = x - mean
        return cls(count=x.shape[0], mean=mean, m2=xc.T @ xc,
                   m3=(xc ** 3).sum(axis=0), m4=(xc ** 4).sum(axis=0))

    def merge(self, other: "_MomentAcc") -> "_MomentAcc":
        na, nb = self.count, other.count
        n = na + nb
        d = other.mean - self.mean
        mean = self.mean + d * (nb / n)
        m2 = self.m2 + other.m2 + np.outer(d, d) * (na * nb / n)
        da = np.diag(self.m2)
        db = np.diag(other.m2)
        m3 = (self.m3 + other.m3
              + d ** 3 * (na * nb * (na - nb) / n ** 2)
              + 3.0 * d * (na * db - nb * da) / n)
        m4 = (self.m4 + other.m4
              + d ** 4 * (na * nb * (na * na - na * nb + nb * nb) / n ** 3)
              + 6.0 * d ** 2 * (na * na * db + nb * nb * da) / n ** 2
              + 4.0 * d * (na * other.m3 - nb * self.m3) / n)
        return _MomentAcc(count=n, mean=mean, m2=m2, m3=m3, m4=m4)


def _shape_stats_from_acc(acc: _MomentAcc):
    m = acc.count
    var = np.diag(acc.m2) / m
    with np.errstate(invalid="ignore", divide="ignore"):
        skew = (acc.m3 / m) / var ** 1.5
        kurt = (acc.m4 / m) / var ** 2 - 3.0
    return var, skew, kurt


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleSummary:
    n: int
    p: float
    trials: int
    seed: int
    mean: np.ndarray          # (S, K, N)
    cov: np.ndarray           # (3,3) unbiased
    skewness: np.ndarray      # standardized, per coordinate
    ex_kurtosis: np.ndarray
    stderr_mean: np.ndarray

    _IDX = {"S": 0, "K": 1, "N": 2}

    def rho(self, a: str, b: str) -> float:
        i, j = self._IDX[a], self._IDX[b]
        return self.cov[i, j] / math.sqrt(self.cov[i, i] * self.cov[j, j])

    def config(self) -> dict:
        return {"n": self.n, "p": self.p, "trials": self.trials, "seed": self.seed}

    def to_json(self, extra_config: dict | None = None) -> str:
        cfg = dict(self.config())
        if extra_config:
            cfg.update(extra_config)
        return json.dumps({
            "config": cfg,
            "mean": {"S": self.mean[0], "K": self.mean[1], "N": self.mean[2]},
            "cov": [[self.cov[i, j] for j in range(3)] for i in range(3)],
            "rho": {"SK": self.rho("S", "K"), "SN": self.rho("S", "N"),
                    "KN": self.rho("K", "N")},
            "skewness": list(self.skewness),
            "ex_kurtosis": list(self.ex_kurtosis),
            "stderr_mean": list(self.stderr_mean),
        })


def run(n: int, p: float, trials: int, seed: int = 0,
        raw_dump=None) -> SampleSummary:
    """Estimate joint moments of (S, K, N) from ``trials`` independent tries."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if trials < 100:
        raise ValueError("trials must be >= 100")
    acc = None
    for start, x in _batches(n, p, trials, seed):
        part = _MomentAcc.from_samples(x)
        acc = part if acc is None else acc.merge(part)
        if raw_dump is not None:
            for i, row in enumerate(x):
                raw_dump.write(f"{start + i},{row[0]},{row[1]},{row[2]}\n")
    var, skew, kurt = _shape_stats_from_acc(acc)
    cov = acc.m2 / (acc.count - 1)
    return SampleSummary(
        n=n, p=p, trials=trials, seed=seed, mean=acc.mean, cov=cov,
        skewness=skew, ex_kurtosis=kurt,
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
    x = np.asarray(values, dtype=np.float64)
    mu = x.mean()
    sd = x.std()
    if sd == 0.0 or not np.isfinite(sd):
        raise DegenerateVariance("zero variance marginal")
    z = (x - mu) / sd
    skew = float((z ** 3).mean())
    kurt = float((z ** 4).mean() - 3.0)
    return skew, kurt, ks_normal(z)


@dataclass(frozen=True)
class NormalityReport:
    n: int
    p: float
    trials: int
    seed: int
    skewness: dict
    ex_kurtosis: dict
    edf_distance: dict

    def to_json(self, extra_config: dict | None = None) -> str:
        cfg = {"n": self.n, "p": self.p, "trials": self.trials, "seed": self.seed}
        if extra_config:
            cfg.update(extra_config)
        return json.dumps({"config": cfg, "skewness": self.skewness,
                           "ex_kurtosis": self.ex_kurtosis,
                           "edf_distance": self.edf_distance})


def normality_report(n: int, p: float, trials: int,
                     seed: int = 0) -> NormalityReport:
    """Marginal normality diagnostics for standardized S and K."""
    if trials < 1000:
        raise ValueError("trials must be >= 1000")
    x = sample_matrix(n, p, trials, seed)
    out = {}
    for name, col in (("S", 0), ("K", 1)):
        out[name] = marginal_diagnostics(x[:, col])
    return NormalityReport(
        n=n, p=p, trials=trials, seed=seed,
        skewness={k: v[0] for k, v in out.items()},
        ex_kurtosis={k: v[1] for k, v in out.items()},
        edf_distance={k: v[2] for k, v in out.items()})


@dataclass(frozen=True)
class WhitenReport:
    n: int
    p: float
    trials: int
    seed: int
    source: str                 # exact | sample | asymptotic
    sigma: SymMatrix2           # the covariance matrix that was inverted
    center: tuple               # (E S, E K) used for centering
    whitened_cov: np.ndarray    # (2,2)
    max_offdiag: float
    skewness: tuple             # whitened marginals
    ex_kurtosis: tuple
    edf_distance: tuple

    def to_json(self, extra_config: dict | None = None) -> str:
        cfg = {"n": self.n, "p": self.p, "trials": self.trials,
               "seed": self.seed, "source": self.source}
        if extra_config:
            cfg.update(extra_config)
        return json.dumps({
            "config": cfg,
            "sigma": [[self.sigma.a, self.sigma.b], [self.sigma.b, self.sigma.c]],
            "center": list(self.center),
            "whitened_cov": [[float(v) for v in row] for row in self.whitened_cov],
            "max_offdiag": self.max_offdiag,
            "skewness": list(self.skewness),
            "ex_kurtosis": list(self.ex_kurtosis),
            "edf_distance": list(self.edf_distance),
        })


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
    x = sample_matrix(n, p, trials, seed)[:, :2].astype(np.float64)
    if source == "exact":
        if table is None:
            table = exact.compute(p, n)
        elif table.n_max < n or table.p != p:
            raise ValueError("supplied table does not cover (n, p)")
        center = (table.mean_S(n), table.mean_K(n))
        sigma = SymMatrix2(a=table.var_S(n), b=table.cov_SK(n), c=table.var_K(n))
    elif source == "sample":
        center = (x[:, 0].mean(), x[:, 1].mean())
        c = np.cov(x.T)
        sigma = SymMatrix2(a=c[0, 0], b=c[0, 1], c=c[1, 1])
    else:
        center = (x[:, 0].mean(), x[:, 1].mean())
        sigma = asym.sigma_matrix(asym.params(p), n)
    w = invsqrt2(sigma)  # NotPositiveDefinite propagates (e.g. n=2 sample)
    y = w.apply(x - np.array(center))
    wcov = (y.T @ y) / (trials - 1)
    diag = []
    for col in range(2):
        diag.append(marginal_diagnostics(y[:, col]))
    return WhitenReport(
        n=n, p=p, trials=trials, seed=seed, source=source, sigma=sigma,
        center=center, whitened_cov=wcov,
        max_offdiag=float(abs(wcov[0, 1])),
        skewness=tuple(d[0] for d in diag),
        ex_kurtosis=tuple(d[1] for d in diag),
        edf_distance=tuple(d[2] for d in diag))


# ---------------------------------------------------------------------------
# joint histogram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointHistogram:
    n: int
    p: float
    trials: int
    seed: int
    bins: int
    counts: np.ndarray      # (bins, bins), row-major over standardized (S, K)
    s_edges: np.ndarray
    k_edges: np.ndarray
    rho: float = field(default=float("nan"))

    def to_json(self, extra_config: dict | None = None) -> str:
        cfg = {"n": self.n, "p": self.p, "trials": self.trials,
               "seed": self.seed, "bins": self.bins}
        if extra_config:
            cfg.update(extra_config)
        return json.dumps({
            "config": cfg,
            "rho": self.rho,
            "s_edges": list(map(float, self.s_edges)),
            "k_edges": list(map(float, self.k_edges)),
            "counts": [[int(v) for v in row] for row in self.counts],
        })


def joint_histogram(n: int, p: float, trials: int, seed: int = 0,
                    bins: int = 50) -> JointHistogram:
    """2-D histogram of per-coordinate standardized (S, K)."""
    if bins < 10:
        raise ValueError("bins must be >= 10")
    x = sample_matrix(n, p, trials, seed)[:, :2].astype(np.float64)
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    if (sd == 0.0).any():
        raise DegenerateVariance("constant marginal; cannot standardize")
    z = (x - mu) / sd
    counts, s_edges, k_edges = np.histogram2d(z[:, 0], z[:, 1], bins=bins)
    rho = float(np.corrcoef(z.T)[0, 1])
    return JointHistogram(n=n, p=p, trials=trials, seed=seed, bins=bins,
                          counts=counts.astype(np.int64),
                          s_edges=s_edges, k_edges=k_edges, rho=rho)
