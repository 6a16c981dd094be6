import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_close, two_key_oracle
from triemoments import (DepthGuardExceeded, Key, KeyExhausted, build_trie,
                         sample_keys, sample_shape, sample_shapes, shape_stats,
                         trial_rng)
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


class TestBuild:
    def test_figure_example(self):
        st = shape_stats(build_trie(FIG1_KEYS))
        assert (st.size, st.kpl, st.npl) == (8, 27, 18)

    def test_single_key(self):
        st = shape_stats(build_trie([Key("0")]))
        assert st == type(st)(n=1, size=0, kpl=0, npl=0, height=0)

    def test_empty(self):
        st = shape_stats(build_trie([]))
        assert (st.n, st.size, st.kpl, st.npl, st.height) == (0, 0, 0, 0, 0)

    def test_three_keys_by_hand(self):
        # "00...", "01...", "1...": root splits {00,01} vs {1}; the left
        # internal node splits the two at depth 2
        st = shape_stats(build_trie(["00", "01", "1"]))
        assert (st.size, st.kpl, st.npl) == (2, 5, 1)

    def test_traversal_matches_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            keys = sample_keys(n, 0.4, rng=rng)
            st = shape_stats(build_trie(keys))
            want = ref_counts([k.bits for k in keys])
            assert (st.size, st.kpl, st.npl, st.height) == want

    def test_key_exhausted(self):
        with pytest.raises(KeyExhausted):
            build_trie(["0101", "0101"])
        with pytest.raises(KeyExhausted):
            build_trie(["01", "010"])  # prefix of another: never separates

    def test_monotone_under_insertion(self):
        keys = ["0011", "0100", "1011", "1100", "1110", "0001"]
        prev = (0, 0, 0)
        for m in range(2, len(keys) + 1):
            st = shape_stats(build_trie(keys[:m]))
            cur = (st.size, st.kpl, st.npl)
            assert all(c >= p for c, p in zip(cur, prev))
            prev = cur

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            Key("012")

    def test_npl_zero_iff_single_internal(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(2, 20))
            st = shape_stats(build_trie(sample_keys(n, 0.5, rng=rng)))
            assert (st.npl == 0) == (st.size <= 1)
            assert st.kpl >= st.n  # every key sits at depth >= 1

    def test_every_key_path_reaches_its_external(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(2, 24))
            keys = sample_keys(n, 0.35, rng=rng)
            trie = build_trie(keys)
            seen = set()
            for i, key in enumerate(keys):
                node = trie.root
                depth = 0
                while type(node).__name__ == "_Internal":
                    node = node.left if key.bits[depth] == "0" else node.right
                    depth += 1
                    assert node is not None
                assert node.key_index == i
                seen.add(i)
            assert len(seen) == n  # one external per key


class TestSampleKeys:
    def test_deterministic(self):
        a = sample_keys(3, 0.3, seed=11)
        b = sample_keys(3, 0.3, seed=11)
        assert [k.bits for k in a] == [k.bits for k in b]

    def test_degenerate_p_rejected(self):
        with pytest.raises(ValueError):
            sample_keys(3, 1.0, seed=0)
        with pytest.raises(ValueError):
            sample_keys(3, 0.0, seed=0)

    def test_prefix_len(self):
        keys = sample_keys(5, 0.5, seed=1, prefix_len=17)
        assert all(len(k) == 17 for k in keys)


class TestSampleShape:
    def test_base_cases(self):
        for n in (0, 1):
            for seed in (0, 1, 99):
                st = sample_shape(n, 0.37, seed=seed)
                assert (st.size, st.kpl, st.npl, st.height) == (0, 0, 0, 0)

    def test_deterministic(self):
        assert sample_shape(500, 0.3, seed=4) == sample_shape(500, 0.3, seed=4)

    def test_two_keys_kpl_identity(self):
        # with two keys both externals sit at the bottom of a path: K = 2S
        for p in (0.2, 0.5, 0.8):
            for t in range(200):
                st = sample_shape(2, p, rng=trial_rng(17, t))
                assert st.kpl == 2 * st.size
                assert st.npl == st.size * (st.size - 1) // 2
                assert st.height == st.size

    def test_two_keys_mean_size(self):
        # E S_2 = 1/(2pq): geometric common-prefix oracle
        trials = 20_000
        mean = sample_shapes(2, 0.5, trials, trial_rng(23, 0))[:, 0].mean()
        var = two_key_oracle(0.5)["VarS"]
        se = math.sqrt(var / trials)
        assert_close(mean, 2.0, atol=3 * se, msg="E S_2 at p=1/2")

    def test_depth_guard(self):
        # heavily skewed bits make tries ~ log n / |log(p^2+q^2)| deep,
        # far past a 64-level guard
        with pytest.raises(DepthGuardExceeded):
            sample_shape(10_000, 0.02, seed=0, max_depth=64)

    def test_default_guard_scales_with_skew(self):
        # the same draw passes with the (n, p)-aware default guard
        st = sample_shape(10_000, 0.02, seed=0)
        assert st.height > 64

    def test_max_depth_validation(self):
        with pytest.raises(ValueError):
            sample_shape(10, 0.5, seed=0, max_depth=10)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            sample_shape(5, -0.1, seed=0)
        with pytest.raises(ValueError, match="1e-17"):
            sample_shape(5, 1e-17, seed=0)

    def test_is_a_batch_of_one(self):
        for n, p in ((2, 0.5), (16, 0.5), (300, 0.1)):
            for t in range(5):
                one = sample_shape(n, p, rng=trial_rng(41, t))
                row = sample_shapes(n, p, 1, trial_rng(41, t))[0]
                assert [one.size, one.kpl, one.npl, one.height] == list(row)
        one = sample_shape(16, 0.3, seed=6)
        assert one == sample_shape(16, 0.3, rng=trial_rng(6, 0))


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
    m = np.arange(_SMALL + 1)
    u = np.full(m.size, np.nextafter(1.0, 0.0))
    k = _alias_split(m, u, prob, alias, np.empty(m.size, dtype=np.int64))
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
    b = np.empty((trials, 3))
    for t in range(trials):
        keys = sample_keys(n, p, rng=trial_rng(200, t))
        st = shape_stats(build_trie(keys))
        b[t] = (st.size, st.kpl, st.npl)
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
