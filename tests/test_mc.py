import io
import math

import numpy as np
import pytest

from conftest import assert_close, table, two_key_oracle
from triemoments import (DegenerateVariance, NotPositiveDefinite, run, whiten,
                         joint_histogram, normality_report)
from triemoments.exact import compute as exact_compute
from triemoments.mc import (_MomentAcc, _batch_size, ks_normal,
                            marginal_diagnostics, sample_matrix)
from triemoments.trie import sample_shapes, trial_rng


class TestAccumulator:
    def test_from_samples_matches_numpy(self, rng):
        x = rng.normal(size=(500, 3)) * [1.0, 7.0, 30.0]
        acc = _MomentAcc.from_samples(x)
        np.testing.assert_allclose(acc.mean, x.mean(axis=0), rtol=1e-12)
        xc = x - x.mean(axis=0)
        np.testing.assert_allclose(acc.m2, xc.T @ xc, rtol=1e-10)
        np.testing.assert_allclose(acc.m3, (xc ** 3).sum(axis=0), rtol=1e-9)
        np.testing.assert_allclose(acc.m4, (xc ** 4).sum(axis=0), rtol=1e-9)

    def test_merge_equals_whole(self, rng):
        x = rng.normal(size=(700, 3)) + [5.0, -2.0, 0.0]
        whole = _MomentAcc.from_samples(x)
        merged = _MomentAcc.from_samples(x[:173]).merge(
            _MomentAcc.from_samples(x[173:]))
        np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-12)
        np.testing.assert_allclose(merged.m2, whole.m2, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(merged.m3, whole.m3, rtol=1e-8, atol=1e-6)
        np.testing.assert_allclose(merged.m4, whole.m4, rtol=1e-8, atol=1e-6)

    def test_chained_merge(self, rng):
        x = rng.normal(size=(900, 3))
        whole = _MomentAcc.from_samples(x)
        acc = _MomentAcc.from_samples(x[:300])
        acc = acc.merge(_MomentAcc.from_samples(x[300:600]))
        acc = acc.merge(_MomentAcc.from_samples(x[600:]))
        np.testing.assert_allclose(acc.m4, whole.m4, rtol=1e-8, atol=1e-6)


class TestRun:
    def test_seed_determinism(self):
        a = run(64, 0.3, 500, seed=5)
        b = run(64, 0.3, 500, seed=5)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.cov, b.cov)

    def test_raw_dump_rows_match_sample_matrix(self):
        # run streams its rows chunk by chunk; they are the same trials, in
        # the same order, as the one-shot sample matrix
        raw = io.StringIO()
        run(32, 0.4, 2100, seed=3, raw_dump=raw)
        rows = np.array([[int(v) for v in ln.split(",")]
                         for ln in raw.getvalue().splitlines()])
        assert np.array_equal(rows[:, 0], np.arange(2100))
        assert np.array_equal(rows[:, 1:], sample_matrix(32, 0.4, 2100, seed=3))

    def test_two_key_mean(self):
        s = run(2, 0.5, 20_000, seed=11)
        se = math.sqrt(two_key_oracle(0.5)["VarS"] / 20_000)
        assert_close(s.mean[0], 2.0, atol=3 * se, msg="mean S_2")
        assert s.rho("S", "K") == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.3, 0.5])
    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_matches_exact_table(self, p, n):
        trials = 20_000
        t = table(p, 1000)
        s = run(n, p, trials, seed=21)
        for j, (mean_fn, var_fn) in enumerate(
                [(t.mean_S, t.var_S), (t.mean_K, t.var_K), (t.mean_N, t.var_N)]):
            se = math.sqrt(var_fn(n) / trials)
            assert_close(s.mean[j], mean_fn(n), atol=4 * se,
                         msg=f"p={p} n={n} coordinate {j}")

    def test_validation(self):
        with pytest.raises(ValueError):
            run(1, 0.5, 500)
        with pytest.raises(ValueError):
            run(10, 0.5, 50)

    def test_raw_dump(self, tmp_path):
        import io
        buf = io.StringIO()
        run(16, 0.5, 200, seed=1, raw_dump=buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 200
        first = lines[0].split(",")
        assert first[0] == "0" and len(first) == 4

    def test_json(self):
        doc = run(16, 0.5, 200, seed=1).to_json(extra_config={"x": 1})
        import json
        d = json.loads(doc)
        assert d["config"]["x"] == 1
        assert "rho" in d and "SK" in d["rho"]


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

    def test_normality_report(self):
        r = normality_report(512, 0.3, 4000, seed=3)
        for key in ("S", "K"):
            assert abs(r.skewness[key]) < 0.25
            assert abs(r.ex_kurtosis[key]) < 0.5
            assert r.edf_distance[key] < 0.05

    def test_normality_determinism(self):
        a = normality_report(64, 0.5, 1500, seed=9)
        b = normality_report(64, 0.5, 1500, seed=9)
        assert a == b

    def test_normality_trials_floor(self):
        with pytest.raises(ValueError):
            normality_report(64, 0.5, 500, seed=9)


class TestWhiten:
    def test_exact_source_identity(self):
        t = table(0.3, 2048)
        r = whiten(2048, 0.3, 4000, seed=13, source="exact", table=t)
        assert np.abs(r.whitened_cov - np.eye(2)).max() < 0.08
        assert r.max_offdiag < 0.08

    def test_sample_source(self):
        r = whiten(512, 0.3, 4000, seed=13, source="sample")
        # whitening by the sample covariance makes the result exactly white
        assert np.abs(r.whitened_cov - np.eye(2)).max() < 5e-3

    def test_asymptotic_source_half(self):
        r = whiten(4096, 0.5, 4000, seed=13, source="asymptotic")
        assert np.abs(r.whitened_cov - np.eye(2)).max() < 0.08

    def test_whitening_inverts_dependence(self):
        # raw correlation sits near 0.927 at p = 1/2; after whitening the
        # off-diagonal collapses
        t = table(0.5, 4096)
        raw = run(4096, 0.5, 4000, seed=19)
        r = whiten(4096, 0.5, 4000, seed=19, source="exact", table=t)
        assert 0.9 < raw.rho("S", "K") < 0.95
        assert r.max_offdiag < 0.05

    def test_degenerate_two_keys(self):
        # K = 2S almost surely at n = 2: the sample covariance is singular
        with pytest.raises(NotPositiveDefinite):
            whiten(2, 0.5, 500, seed=1, source="sample")

    def test_table_mismatch_rejected(self):
        t = exact_compute(0.3, 128)  # deliberately too small / wrong p
        with pytest.raises(ValueError):
            whiten(256, 0.3, 500, seed=1, source="exact", table=t)
        with pytest.raises(ValueError):
            whiten(64, 0.5, 500, seed=1, source="exact", table=t)

    def test_bad_source(self):
        with pytest.raises(ValueError):
            whiten(64, 0.5, 500, seed=1, source="magic")


class TestHistogram:
    def test_counts_sum(self):
        h = joint_histogram(256, 0.5, 2000, seed=2, bins=16)
        assert h.counts.sum() == 2000
        assert h.counts.shape == (16, 16)

    def test_dependence_contrast(self):
        # rho decays only like 1/sqrt(log n) off p = 1/2, so at desk scale
        # the observable fact is the contrast, not near-zero correlation
        strong = joint_histogram(4096, 0.5, 3000, seed=2, bins=16)
        weak = joint_histogram(4096, 0.1, 3000, seed=2, bins=16)
        assert strong.rho > 0.9
        assert weak.rho < 0.7
        assert strong.rho - weak.rho > 0.2

    def test_p_symmetry_statistics(self):
        a = joint_histogram(512, 0.3, 4000, seed=8, bins=12)
        b = joint_histogram(512, 0.7, 4000, seed=8, bins=12)
        # same law: the standardized-correlation estimates agree to MC noise
        assert abs(a.rho - b.rho) < 4 * (1 - a.rho ** 2) / math.sqrt(4000) + 0.02

    def test_bins_floor(self):
        with pytest.raises(ValueError):
            joint_histogram(64, 0.5, 500, seed=1, bins=4)


def test_sample_matrix_chunk_invariance():
    # batch b holds trials [b*G, (b+1)*G) and draws them together from
    # stream b, so a whole number of batches is a prefix of any longer
    # sample; G = 1024 at n = 32 and 327 at n = 100
    for n in (32, 100):
        g = _batch_size(n)
        x = sample_matrix(n, 0.4, 2 * g + 5, seed=3)
        for b, count in ((0, g), (1, g), (2, 5)):
            want = sample_shapes(n, 0.4, count, trial_rng(3, b))[:, :3]
            assert np.array_equal(x[b * g:b * g + count], want), (n, b)
        assert np.array_equal(sample_matrix(n, 0.4, 2 * g, seed=3), x[:2 * g])


def test_sample_matrix_trials_floor():
    with pytest.raises(ValueError, match="trials"):
        sample_matrix(16, 0.5, 1, seed=0)


def test_standard_error_honesty():
    # across independent seeds, the exact mean falls within one reported SE
    # about 68% of the time
    t = table(0.5, 64)
    truth = t.mean_S(64)
    hits = 0
    reps = 50
    for seed in range(reps):
        s = run(64, 0.5, 1000, seed=1_000_000 + seed)
        hits += abs(s.mean[0] - truth) <= s.stderr_mean[0]
    # binomial(50, 0.68): 3 sigma is about +-10
    assert 24 <= hits <= 44, f"{hits}/50 within 1 SE"


@pytest.mark.slow
def test_mc_correlation_dichotomy_decay():
    # off p = 1/2 the correlation keeps sliding down as n grows
    lo = run(10_000, 0.2, 8000, seed=31).rho("S", "K")
    hi = run(100_000, 0.2, 8000, seed=31).rho("S", "K")
    assert hi < lo - 0.015
