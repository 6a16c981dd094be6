import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_close, two_key_oracle
from triemoments import (DepthGuardExceeded, KeyExhausted, key_shapes,
                         sample_keys, sample_shapes, trial_rng)
from triemoments import trie
from triemoments.exact import compute as exact_compute
from triemoments.trie import _ROW_START, _SMALL, _alias_split, _alias_tables

# the seven records of the worked example; the last string is adjusted to
# match the drawn split structure (the printed figure string branches one
# level too early for its own bits)
FIG1_KEYS = ["00011100", "01010100", "01100111", "10111010",
             "11000011", "11001000", "11001110"]


def ref_counts(keys, depth=0):
    """Independent recursive oracle for (size, kpl, npl, height)."""
    if len(keys) == 0:
        return (0, 0, 0, 0)
    if len(keys) == 1:
        return (0, depth, 0, depth)
    left = [k for k in keys if k[depth] == "0"]
    right = [k for k in keys if k[depth] == "1"]
    s1, k1, n1, h1 = ref_counts(left, depth + 1)
    s2, k2, n2, h2 = ref_counts(right, depth + 1)
    return (s1 + s2 + 1, k1 + k2, n1 + n2 + depth, max(h1, h2))


def shape_of(keys):
    """key_shapes row of one trie of keys written as bit strings."""
    bits = np.array([[c == "1" for c in k] for k in keys], dtype=bool)
    bits = bits.reshape(1, len(keys), len(keys[0]) if keys else 0)
    return tuple(key_shapes(bits)[0].tolist())


class TestBuild:
    """``key_shapes`` against hand-counted tries and the recursive oracle."""

    def test_figure_example(self):
        assert shape_of(FIG1_KEYS)[:3] == (8, 27, 18)

    def test_single_key(self):
        assert shape_of(["0"]) == (0, 0, 0, 0)

    def test_empty(self):
        assert shape_of([]) == (0, 0, 0, 0)

    def test_three_keys_by_hand(self):
        # "00...", "01...", "10...": root splits {00,01} vs {10}; the left
        # internal node splits the two at depth 2
        assert shape_of(["00", "01", "10"]) == (2, 5, 1, 2)

    def test_traversal_matches_reference(self):
        # prefixes shorter and longer than one 64-bit word, and lengths that
        # are not whole bytes; each row is also the trie measured alone
        rng = np.random.default_rng(3)
        for length in (20, 37, 64, 99, 141):
            count = int(rng.integers(1, 12))
            n = int(rng.integers(2, 40))
            p = float(rng.uniform(0.3, 0.7))
            bits = np.stack([sample_keys(n, p, rng, length)
                             for _ in range(count)])
            rows = key_shapes(bits)
            assert rows.shape == (count, 4) and rows.dtype == np.int64
            for t in range(count):
                keys = ["".join("1" if b else "0" for b in k)
                        for k in bits[t]]
                assert tuple(rows[t]) == ref_counts(keys), (length, t)
                assert (key_shapes(bits[t:t + 1])[0] == rows[t]).all()

    def test_zero_and_one_key_rows(self):
        for n in (0, 1):
            for length in (0, 5, 64):
                x = key_shapes(np.ones((3, n, length), dtype=bool))
                assert x.shape == (3, 4) and x.dtype == np.int64
                assert not x.any()

    def test_key_exhausted(self):
        with pytest.raises(KeyExhausted, match="trie 0"):
            shape_of(["0101", "0101"])
        bits = sample_keys(6, 0.5, trial_rng(8, 0), 32).reshape(2, 3, 32)
        bits[1, 2] = bits[1, 0]
        with pytest.raises(KeyExhausted, match="trie 1"):
            key_shapes(bits)
        with pytest.raises(KeyExhausted, match="trie 0"):
            key_shapes(np.zeros((2, 2, 0), dtype=bool))

    def test_monotone_under_insertion(self):
        keys = ["0011", "0100", "1011", "1100", "1110", "0001"]
        prev = (0, 0, 0)
        for m in range(2, len(keys) + 1):
            cur = shape_of(keys[:m])[:3]
            assert all(c >= p for c, p in zip(cur, prev))
            prev = cur

    def test_npl_zero_iff_single_internal(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(2, 20))
            size, kpl, npl, _ = key_shapes(sample_keys(n, 0.5, rng)[None])[0]
            assert (npl == 0) == (size <= 1)
            assert kpl >= n  # every key sits at depth >= 1


class TestSampleKeys:
    def test_deterministic(self):
        a = sample_keys(3, 0.3, trial_rng(11, 0))
        b = sample_keys(3, 0.3, trial_rng(11, 0))
        assert a.dtype == bool and (a == b).all()

    def test_degenerate_p_rejected(self):
        with pytest.raises(ValueError):
            sample_keys(3, 1.0, trial_rng(0, 0))
        with pytest.raises(ValueError):
            sample_keys(3, 0.0, trial_rng(0, 0))

    def test_prefix_len(self):
        assert sample_keys(5, 0.5, trial_rng(1, 0), prefix_len=17).shape == (5, 17)


def shape_row(n, p, seed):
    """One trie drawn by ``sample_shapes`` from stream ``trial_rng(seed, 0)``."""
    return sample_shapes(n, p, 1, trial_rng(seed, 0))[0]


class TestSampleShape:
    def test_base_cases(self):
        for n in (0, 1):
            for seed in (0, 1, 99):
                assert not shape_row(n, 0.37, seed).any()

    def test_deterministic(self):
        assert (shape_row(500, 0.3, 4) == shape_row(500, 0.3, 4)).all()

    def test_two_keys_kpl_identity(self):
        # with two keys both externals sit at the bottom of a path: K = 2S
        for p in (0.2, 0.5, 0.8):
            for t in range(200):
                size, kpl, npl, height = sample_shapes(2, p, 1,
                                                       trial_rng(17, t))[0]
                assert kpl == 2 * size
                assert npl == size * (size - 1) // 2
                assert height == size

    def test_two_keys_mean_size(self):
        # E S_2 = 1/(2pq): geometric common-prefix oracle
        trials = 20_000
        mean = sample_shapes(2, 0.5, trials, trial_rng(23, 0))[:, 0].mean()
        var = two_key_oracle(0.5)["VarS"]
        se = math.sqrt(var / trials)
        assert_close(mean, 2.0, atol=3 * se, msg="E S_2 at p=1/2")

    def test_depth_guard(self, monkeypatch):
        # heavily skewed bits make tries ~ log n / |log(p^2+q^2)| deep,
        # far past a 64-level guard
        monkeypatch.setattr(trie, "_default_max_depth", lambda n, p: 64)
        with pytest.raises(DepthGuardExceeded, match="past depth 64"):
            shape_row(10_000, 0.02, 0)

    def test_default_guard_scales_with_skew(self):
        # the same draw passes with the (n, p)-aware default guard
        assert shape_row(10_000, 0.02, 0)[3] > 64

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            shape_row(5, -0.1, 0)
        with pytest.raises(ValueError, match="1e-17"):
            shape_row(5, 1e-17, 0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 300), p=st.floats(0.02, 0.98),
       count=st.integers(1, 40), seed=st.integers(0, 2**64 - 1))
def test_sample_shapes_invariants(n, p, count, seed):
    # every row is a trie over n keys: at least n - 1 binary branchings and
    # a depth that can hold n leaves; two keys hang off a unary path
    x = sample_shapes(n, p, count, trial_rng(seed, 0))
    assert x.shape == (count, 4) and x.dtype == np.int64
    size, kpl, npl, height = x.T
    assert (size >= n - 1).all()
    assert (height >= math.ceil(math.log2(n))).all()
    y = sample_shapes(2, p, count, trial_rng(seed, 1))
    assert (y[:, 1] == 2 * y[:, 0]).all()
    assert (y[:, 3] == y[:, 0]).all()


def test_sample_shapes_checks_its_count():
    with pytest.raises(ValueError, match="count must be >= 0"):
        sample_shapes(10, 0.5, -1, trial_rng(0, 0))
    assert sample_shapes(10, 0.5, 0, trial_rng(0, 0)).shape == (0, 4)


@pytest.mark.parametrize("p", [0.02, 0.1, 0.3, 0.5, 0.9])
def test_alias_tables_match_rational_pmf(p):
    # the pmf each row's (prob, alias) implies, in exact rationals, against
    # the Binomial(m, p) pmf of the float p
    prob, alias = _alias_tables(p)
    pf = Fraction(p)
    worst = Fraction(0)
    for m in range(_SMALL + 1):
        cols = range(_ROW_START[m], _ROW_START[m] + m + 1)
        mass = [Fraction(prob[c]) for c in cols]
        for c in cols:
            mass[alias[c]] += 1 - Fraction(prob[c])
        for k in range(m + 1):
            want = math.comb(m, k) * pf ** k * (1 - pf) ** (m - k)
            worst = max(worst, abs(mass[k] / (m + 1) - want))
    assert worst <= 1e-15, float(worst)


@pytest.mark.parametrize("p", [0.02, 0.1, 0.5])
def test_alias_rows_have_full_support(p):
    # the tables are built from the full-support pmf, not the exact DP's
    # window: every outcome whose Binomial(m, p) mass is a normal float64
    # must be drawable
    prob, alias = _alias_tables(p)
    pf, tiny = Fraction(p), Fraction(np.finfo(np.float64).tiny)
    for m in range(_SMALL + 1):
        cols = np.arange(_ROW_START[m], _ROW_START[m] + m + 1)
        mass = prob[cols].copy()
        np.add.at(mass, alias[cols], 1.0 - prob[cols])
        for k in range(m + 1):
            if math.comb(m, k) * pf ** k * (1 - pf) ** (m - k) >= tiny:
                assert mass[k] > 0.0, (m, k)


def test_alias_last_uniform_stays_in_row():
    # u just below 1 must land in column m of row m, never in the next row
    # or past the table's end
    prob, alias = _alias_tables(0.3)
    m = np.arange(_SMALL + 1, dtype=np.int32)
    u = np.full(m.size, np.nextafter(1.0, 0.0))
    k = _alias_split(m, u, prob, alias)
    last = alias[_ROW_START + m]
    assert ((k == m) | (k == last)).all()
    assert ((0 <= k) & (k <= m)).all()


@pytest.mark.parametrize("p", [0.1, 0.9])
@pytest.mark.parametrize("n", [_SMALL, _SMALL + 1])
def test_sample_shapes_law_at_alias_threshold(n, p):
    # a root of _SMALL keys is split by the alias table, one more key sends
    # it through rng.binomial: means and variances of S, K and N within
    # 4 standard errors of the exact moments either way
    count = 10_000
    x = sample_shapes(n, p, count, trial_rng(71, n))[:, :3].astype(float)
    t = exact_compute(p, n)
    exact = [(t.mean_S(n), t.var_S(n)), (t.mean_K(n), t.var_K(n)),
             (t.mean_N(n), t.var_N(n))]
    for col, (mean, var), name in zip(x.T, exact, "SKN"):
        dev = col - col.mean()
        m4 = (dev ** 4).mean()
        assert abs(col.mean() - mean) < 4 * math.sqrt(var / count), name
        se_var = math.sqrt((m4 - var * var) / count)
        assert abs(dev.var(ddof=1) - var) < 4 * se_var, name


def test_sample_shapes_memory_does_not_grow_with_depth():
    # at p = 3e-3 a batch of 100 tries runs for about 2,200 levels; keeping
    # one count-sized record per level would take about 40 B x levels x
    # tries = 8.5 MB, the running totals take a few kB (the alias tables
    # are built before tracing)
    _alias_tables(3e-3)
    rng = trial_rng(9, 0)
    tracemalloc.start()
    try:
        x = sample_shapes(100, 3e-3, 100, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x[:, 3].max() > 1500
    assert peak < 2 ** 18


def test_samplers_share_law_small_n():
    # moments of the explicit-key path match the splitting sampler within
    # 4 standard errors (desk-scale version of the acceptance check)
    trials = 4000
    p, n = 0.3, 6
    a = sample_shapes(n, p, trials, trial_rng(100, 0))[:, :3].astype(float)
    bits = np.stack([sample_keys(n, p, trial_rng(200, t))
                     for t in range(trials)])
    b = key_shapes(bits)[:, :3].astype(float)
    for j, name in enumerate("SKN"):
        se = math.sqrt(a[:, j].var() / trials + b[:, j].var() / trials)
        assert abs(a[:, j].mean() - b[:, j].mean()) < 4 * se, name


@pytest.mark.parametrize("t", [0, 1, 1024, 2**64 - 1, 2**64])
def test_trial_rng_is_the_jumped_stream(t):
    # the counter-addressed stream must equal Philox(key).jumped(t), the
    # stream every recorded Monte-Carlo result was drawn from
    seed = 987654321
    ref = np.random.Philox(key=seed)
    if t:
        ref = ref.jumped(t)
    got = trial_rng(seed, t).bit_generator
    for part in ("counter", "key"):
        np.testing.assert_array_equal(got.state["state"][part],
                                      ref.state["state"][part])
    assert got.random_raw(8).tolist() == ref.random_raw(8).tolist()


def test_trial_rng_refuses_seeds_outside_128_bits():
    # Philox keys are 128 bits: a wider or negative seed would wrap onto the
    # stream of another seed
    for seed in (-1, 2**128, 2**128 + 1):
        with pytest.raises(ValueError, match="seed"):
            trial_rng(seed, 0)
    top = trial_rng(2**128 - 1, 0).bit_generator.state["state"]["key"]
    assert top.tolist() == [2**64 - 1, 2**64 - 1]
