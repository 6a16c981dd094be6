import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from conftest import (assert_close, in_children, no_child_left, table,
                      two_key_oracle, within, workers)
from triemoments import (DegenerateVariance, DepthGuardExceeded,
                         NotPositiveDefinite, TrieMomentsError,
                         WorkBudgetExceeded, run, whiten, joint_histogram)
from triemoments.mc import (_MAX_KEYS, _MAX_LEVELS, _WORKER_KEYS,
                            _batch_height, _batch_size, ks_normal,
                            marginal_diagnostics, sample_matrix, summary)
from triemoments.trie import _default_max_depth, sample_shapes, trial_rng


def assert_plain(doc):
    """Every leaf of a result document is a Python int, float or str: the
    CLI writes floats by repr, and repr(np.float64(x)) is not repr(x)."""
    if isinstance(doc, dict):
        for v in doc.values():
            assert_plain(v)
    elif isinstance(doc, list):
        for v in doc:
            assert_plain(v)
    else:
        assert type(doc) in (int, float, str), (type(doc), doc)


def _exact_moments(x):
    """Mean, covariance (divisor m - 1), skewness and excess kurtosis of the
    columns of an integer sample, from exact integer power sums."""
    m = len(x)
    cols = [x[:, i].tolist() for i in range(x.shape[1])]
    s1 = [sum(c) for c in cols]
    mean = [Fraction(v, m) for v in s1]
    cov = [[Fraction(sum(a * b for a, b in zip(ci, cj)) * m - si * sj, m * (m - 1))
            for cj, sj in zip(cols, s1)] for ci, si in zip(cols, s1)]
    skew, kurt = [], []
    for c, a in zip(cols, s1):
        s2, s3, s4 = (sum(v ** k for v in c) for k in (2, 3, 4))
        var = Fraction(s2 * m - a * a, m * m)
        m3 = Fraction(s3 * m * m - 3 * a * s2 * m + 2 * a ** 3, m ** 3)
        m4 = Fraction(s4 * m ** 3 - 4 * a * s3 * m * m + 6 * a * a * s2 * m
                      - 3 * a ** 4, m ** 4)
        skew.append(math.copysign(math.sqrt(m3 * m3 / var ** 3), m3))
        kurt.append(m4 / var ** 2 - 3)
    return mean, cov, skew, kurt


@pytest.mark.parametrize("n, p, trials, seed", [(16, 0.5, 12_000, 1),
                                                (1000, 0.3, 5000, 2),
                                                (4096, 0.5, 4000, 19)])
def test_run_moments_match_exact_rationals(n, p, trials, seed):
    # run's summary against exact rational moments of the same draws: the
    # one centring pass gives correctly rounded means, covariances within
    # about 2 units of roundoff and shape statistics to 1e-14
    s = run(n, p, trials, seed)
    x = sample_matrix(n, p, trials, seed)
    mean, cov, skew, kurt = _exact_moments(x)
    for i in range(3):
        got = s["mean"]["SKN"[i]]
        assert abs(Fraction(got) - mean[i]) <= np.spacing(float(mean[i]))
        for j in range(3):
            assert abs(Fraction(s["cov"][i][j]) - cov[i][j]) <= 4.5e-16 * abs(cov[i][j])
        assert abs(s["skewness"][i] - skew[i]) <= 1e-14 * max(1.0, abs(skew[i]))
        k = float(kurt[i])
        assert abs(Fraction(s["ex_kurtosis"][i]) - kurt[i]) <= 1e-14 * max(1.0, abs(k))


class TestRun:
    def test_seed_determinism(self):
        a = run(64, 0.3, 500, seed=5)
        b = run(64, 0.3, 500, seed=5)
        assert a["mean"] == b["mean"]
        assert a["cov"] == b["cov"]

    def test_two_key_mean(self):
        s = run(2, 0.5, 20_000, seed=11)
        se = math.sqrt(two_key_oracle(0.5)["VarS"] / 20_000)
        assert_close(s["mean"]["S"], 2.0, atol=3 * se, msg="mean S_2")
        assert s["rho"]["SK"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.3, 0.5])
    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_matches_exact_table(self, p, n):
        trials = 20_000
        t = table(p, 1000)
        s = run(n, p, trials, seed=21)
        for j, (mean_fn, var_fn) in enumerate(
                [(t.mean_S, t.var_S), (t.mean_K, t.var_K), (t.mean_N, t.var_N)]):
            se = math.sqrt(var_fn(n) / trials)
            assert_close(s["mean"]["SKN"[j]], mean_fn(n), atol=4 * se,
                         msg=f"p={p} n={n} coordinate {j}")

    def test_validation(self):
        with pytest.raises(ValueError):
            run(1, 0.5, 500)
        with pytest.raises(ValueError):
            run(10, 0.5, 50)

    def test_json(self):
        # run returns the document itself: plain data that JSON can write,
        # equal to summary of the same sample
        s = run(16, 0.5, 200, seed=1)
        assert "config" not in s
        assert "rho" in s and "SK" in s["rho"]
        assert s == summary(sample_matrix(16, 0.5, 200, seed=1))
        assert_plain(s)
        json.dumps(s)


class TestDiagnostics:
    def test_ks_normal_on_normals(self, rng):
        z = rng.standard_normal(4000)
        assert ks_normal(z) < 0.03

    def test_ks_normal_on_uniform(self, rng):
        u = rng.random(4000)
        assert ks_normal(u) > 0.2

    def test_constant_rejected(self):
        with pytest.raises(DegenerateVariance):
            marginal_diagnostics(np.full(100, 3.0))


class TestWhiten:
    def test_exact_source_identity(self):
        r = whiten(2048, 0.3, 4000, seed=13, source="exact")
        assert np.abs(np.array(r["whitened_cov"]) - np.eye(2)).max() < 0.08
        assert r["max_offdiag"] < 0.08

    def test_sample_source(self):
        r = whiten(512, 0.3, 4000, seed=13, source="sample")
        # whitening by the sample covariance makes the result exactly white
        assert np.abs(np.array(r["whitened_cov"]) - np.eye(2)).max() < 5e-3

    def test_asymptotic_source_half(self):
        r = whiten(4096, 0.5, 4000, seed=13, source="asymptotic")
        assert np.abs(np.array(r["whitened_cov"]) - np.eye(2)).max() < 0.08

    def test_whitening_inverts_dependence(self):
        # raw correlation sits near 0.927 at p = 1/2; after whitening the
        # off-diagonal collapses
        raw = run(4096, 0.5, 4000, seed=19)
        r = whiten(4096, 0.5, 4000, seed=19, source="exact")
        assert 0.9 < raw["rho"]["SK"] < 0.95
        assert r["max_offdiag"] < 0.05

    def test_degenerate_two_keys(self):
        # K = 2S almost surely at n = 2: the sample covariance is singular
        with pytest.raises(NotPositiveDefinite):
            whiten(2, 0.5, 500, seed=1, source="sample")

    def test_singular_exact_matrix_refused_before_drawing(self, monkeypatch):
        # the exact matrix at n = 2 is singular too, and is refused before
        # any trie is drawn, also where drawing takes seconds (p near 1)
        def no_draws(*args):
            raise AssertionError("sampled before forming the whitening")

        monkeypatch.setattr("triemoments.mc.sample_matrix", no_draws)
        for p in (0.5, 0.1, 0.999983782445625):
            with pytest.raises(NotPositiveDefinite):
                whiten(2, p, 287, seed=1, source="exact")

    def test_bad_source(self):
        with pytest.raises(ValueError):
            whiten(64, 0.5, 500, seed=1, source="magic")

    def test_doc(self):
        # every source returns plain data that JSON can write
        for p, source in ((0.3, "exact"), (0.3, "sample"), (0.5, "asymptotic")):
            r = whiten(64, p, 300, seed=1, source=source)
            assert_plain(r)
            json.dumps(r)


class TestHistogram:
    def test_counts_sum(self):
        h = joint_histogram(256, 0.5, 2000, seed=2, bins=16)
        assert np.sum(h["counts"]) == 2000
        assert np.shape(h["counts"]) == (16, 16)

    def test_dependence_contrast(self):
        # rho decays only like 1/sqrt(log n) off p = 1/2, so at desk scale
        # the observable fact is the contrast, not near-zero correlation
        strong = joint_histogram(4096, 0.5, 3000, seed=2, bins=16)
        weak = joint_histogram(4096, 0.1, 3000, seed=2, bins=16)
        assert strong["rho"] > 0.9
        assert weak["rho"] < 0.7
        assert strong["rho"] - weak["rho"] > 0.2

    def test_p_symmetry_statistics(self):
        a = joint_histogram(512, 0.3, 4000, seed=8, bins=12)
        b = joint_histogram(512, 0.7, 4000, seed=8, bins=12)
        # same law: the standardized-correlation estimates agree to MC noise
        assert abs(a["rho"] - b["rho"]) < 4 * (1 - a["rho"] ** 2) / math.sqrt(4000) + 0.02

    def test_bins_floor(self):
        with pytest.raises(ValueError):
            joint_histogram(64, 0.5, 500, seed=1, bins=4)

    def test_bins_ceiling(self):
        # more bins than trials is refused before anything is drawn
        with pytest.raises(ValueError, match="bins must be <= trials"):
            joint_histogram(64, 0.5, 500, seed=1, bins=501)
        assert np.sum(joint_histogram(64, 0.5, 500, seed=1, bins=500)["counts"]) == 500

    def test_doc(self):
        # the histogram is plain data that JSON can write
        h = joint_histogram(64, 0.5, 300, seed=1, bins=10)
        assert_plain(h)
        json.dumps(h)


def test_sample_matrix_chunk_invariance():
    # batch b holds trials [b*G, (b+1)*G) and draws them together from
    # stream b, so a whole number of batches is a prefix of any longer
    # sample; G = 1024 at n = 32 and 100, 13 at n = 10,000 and 1 at
    # n = 100,000
    for n in (32, 100, 10_000, 100_000):
        g = _batch_size(n)
        trials = 2 * g + 5
        x = sample_matrix(n, 0.4, trials, seed=3)
        for b in range(-(-trials // g)):
            count = min(g, trials - b * g)
            want = sample_shapes(n, 0.4, count, trial_rng(3, b))[:, :3]
            assert np.array_equal(x[b * g:b * g + count], want), (n, b)
        assert np.array_equal(sample_matrix(n, 0.4, 2 * g, seed=3), x[:2 * g])


def _counter(rng):
    return rng.bit_generator.state["state"]["counter"].tolist()


@pytest.mark.parametrize("n, trials", [(16, 2100), (100, 1400), (1000, 300),
                                       (10_000, 27), (40_000, 7)])
def test_sample_matrix_call_bounds(monkeypatch, n, trials):
    # batch b is one sample_shapes call of G tries (fewer in the last), at
    # most 2**17 keys and 1024 tries, drawn from stream b
    calls = []

    def recording(n, p, count, rng):
        calls.append((count, _counter(rng)))
        return sample_shapes(n, p, count, rng)

    # below the worker threshold the calls stay in this process, where the
    # recorder sees every one of them
    assert n * trials < _WORKER_KEYS
    monkeypatch.setattr("triemoments.mc.sample_shapes", recording)
    sample_matrix(n, 0.5, trials, seed=2)
    g = _batch_size(n)
    assert n * g <= 2 ** 17 and g <= 1024
    counts = [g] * (trials // g) + ([trials % g] if trials % g else [])
    assert calls == [(c, _counter(trial_rng(2, b)))
                     for b, c in enumerate(counts)]


# 3.159e6 keys in batches of G = 131 tries: up to three workers, and a last
# batch of 15 tries
_WORKER_SHAPE = (1000, 0.3, 3159)


def test_sample_matrix_rows_equal_for_every_worker_count(monkeypatch):
    # the batches are dealt to forked workers, and every row is the same for
    # any number of them; one worker per 2**20 keys of the run at most
    n, p, trials = _WORKER_SHAPE
    g = _batch_size(n)
    assert n * trials >= 3 * _WORKER_KEYS and trials % g == 15
    rows = {}
    for k in (1, 2, 3):
        forked = workers(monkeypatch, k)
        with within(60):
            rows[k] = sample_matrix(n, p, trials, seed=4)
        assert len(forked) == k - 1
        no_child_left()
    assert all(np.array_equal(rows[1], rows[k]) for k in (2, 3))
    last = sample_shapes(n, p, 15, trial_rng(4, trials // g))[:, :3]
    assert np.array_equal(rows[3][-15:], last)
    # one worker per 2**20 keys: a smaller run is drawn here alone
    forked = workers(monkeypatch, 3)
    with within(60):
        sample_matrix(n, p, _WORKER_KEYS // n, seed=4)
    assert forked == []


def test_worker_exception_raised_unchanged(monkeypatch):
    # DepthGuardExceeded in a worker is raised here with its own message
    n, p, trials = _WORKER_SHAPE
    monkeypatch.setattr("triemoments.trie._default_max_depth",
                        in_children(_default_max_depth, lambda n, p: 3))
    forked = workers(monkeypatch, 3)
    with within(60), pytest.raises(DepthGuardExceeded) as e:
        sample_matrix(n, p, trials, seed=4)
    assert str(e.value) == f"splitting recursion past depth 3 at n={n}, p={p}"
    assert len(forked) == 2
    no_child_left()


def test_worker_without_result(monkeypatch):
    # a worker that ends without sending its rows is an error naming it
    n, p, trials = _WORKER_SHAPE

    def dying(*a):
        os._exit(1)

    monkeypatch.setattr("triemoments.mc.sample_shapes",
                        in_children(sample_shapes, dying))
    forked = workers(monkeypatch, 2)
    with within(60), pytest.raises(TrieMomentsError) as e:
        sample_matrix(n, p, trials, seed=4)
    assert str(e.value) == (f"worker process {forked[0]} ended without a "
                            "result")
    no_child_left()


def test_failure_here_kills_workers(monkeypatch):
    # an exception in this process's own batches kills and reaps the workers
    n, p, trials = _WORKER_SHAPE
    monkeypatch.setattr("triemoments.trie._default_max_depth",
                        in_children(lambda n, p: 3, _default_max_depth))
    forked = workers(monkeypatch, 3)
    with within(60), pytest.raises(DepthGuardExceeded):
        sample_matrix(n, p, trials, seed=4)
    assert len(forked) == 2
    no_child_left()


def test_work_budget_refuses_before_drawing(monkeypatch):
    # a batch is bounded in keys (memory) and in expected height (time at
    # tiny p); the largest runs of the tests and the README keep at least
    # 2x headroom: n = 1e5 at p = 0.1 (one trie per batch) and
    # whiten --p 1e-4 --n 1000 --trials 200
    assert 2 * 100_000 < _MAX_KEYS
    assert 2 * _batch_height(100_000, 0.1, 1) < _MAX_LEVELS
    assert 2 * _batch_height(1000, 1e-4, _batch_size(1000)) < _MAX_LEVELS

    def no_draws(*args):
        raise AssertionError("sampled past the budget")

    monkeypatch.setattr("triemoments.mc.sample_shapes", no_draws)
    with pytest.raises(WorkBudgetExceeded,
                       match=f"budget of {_MAX_LEVELS} levels"):
        sample_matrix(100, 1e-6, 100, seed=0)
    with pytest.raises(WorkBudgetExceeded, match=f"more than {_MAX_KEYS} keys"):
        run(10 ** 8, 0.5, 100)
    with pytest.raises(ValueError, match="1 - p"):
        sample_matrix(16, 1e-17, 100, seed=0)


@pytest.mark.parametrize("n,p", [(100, 0.01), (2, 0.01), (4096, 0.5)])
def test_batch_height_estimate_tracks_sampler(n, p):
    # the level budget rests on this estimate: a batch's height is the
    # longest prefix shared by any of its g n(n-1)/2 key pairs
    g = _batch_size(n)
    height = sample_shapes(n, p, g, trial_rng(5, 0))[:, 3].max()
    assert 0.7 < height / _batch_height(n, p, g) < 1.5


def test_sample_matrix_trials_floor():
    with pytest.raises(ValueError, match="trials"):
        sample_matrix(16, 0.5, 1, seed=0)


def test_n_floor_is_one_check():
    # every Monte-Carlo command refuses n < 2 with the same message
    for n in (-5, 0, 1):
        for draw in (lambda: sample_matrix(n, 0.5, 100, seed=0),
                     lambda: run(n, 0.5, 100),
                     lambda: whiten(n, 0.5, 100, source="sample"),
                     lambda: joint_histogram(n, 0.5, 100)):
            with pytest.raises(ValueError, match="n must be >= 2"):
                draw()


def test_standard_error_honesty():
    # across independent seeds, the exact mean falls within one reported SE
    # about 68% of the time
    t = table(0.5, 64)
    truth = t.mean_S(64)
    hits = 0
    reps = 50
    for seed in range(reps):
        s = run(64, 0.5, 1000, seed=1_000_000 + seed)
        hits += abs(s["mean"]["S"] - truth) <= s["stderr_mean"][0]
    # binomial(50, 0.68): 3 sigma is about +-10
    assert 24 <= hits <= 44, f"{hits}/50 within 1 SE"


@pytest.mark.slow
def test_mc_correlation_dichotomy_decay():
    # off p = 1/2 the correlation keeps sliding down as n grows
    lo = run(10_000, 0.2, 8000, seed=31)["rho"]["SK"]
    hi = run(100_000, 0.2, 8000, seed=31)["rho"]["SK"]
    assert hi < lo - 0.015
