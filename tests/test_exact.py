import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from conftest import assert_close, table, two_key_oracle
from triemoments import (DegenerateVariance, MomentTable, PoissonModel,
                         WorkBudgetExceeded, compute, exact)
from triemoments.asym import IRRATIONAL, g2_general, params
from triemoments.cli import main
from triemoments.exact import (_TAIL_BITS, _binom_weights, _canonical, _cone,
                               _windows)


class TestWeights:
    @pytest.mark.parametrize("n,p", [(2, 0.5), (17, 0.3), (400, 0.02),
                                     (5000, 0.5), (20000, 0.2)])
    def test_normalised(self, n, p):
        w = _binom_weights(n, p, 1.0 - p)
        assert abs(w.sum() - 1.0) < 1e-14
        assert (w >= 0.0).all()

    def test_small_exact(self):
        w = _binom_weights(2, 0.25, 0.75)
        np.testing.assert_allclose(w, [0.5625, 0.375, 0.0625], rtol=1e-15)

    def test_matches_exact_binomial(self):
        # exact rational binomial pmf as oracle
        from fractions import Fraction
        n, p = 30, 0.3
        pf = Fraction(p)
        w = _binom_weights(n, p, 1.0 - p)
        for k in (0, 1, 7, 15, 30):
            want = float(math.comb(n, k) * pf ** k * (1 - pf) ** (n - k))
            assert abs(w[k] - want) < 1e-13 * want

    @pytest.mark.parametrize("n,p", [(2, 0.5), (100, 0.3), (4096, 0.3),
                                     (4096, 0.02), (30000, 0.5), (30000, 1e-3)])
    def test_window_matches_full_slice(self, n, p):
        # the DP's windowed weights are the full pmf's, up to the
        # renormalising sum over the window
        lo, hi = (b[n] for b in _windows(n, p))
        w = _binom_weights(n, p, 1.0 - p, np.float64, lo, hi)
        full = _binom_weights(n, p, 1.0 - p)
        np.testing.assert_allclose(w, full[lo:hi + 1], rtol=1e-15, atol=0.0)


def _mass_above(n: np.ndarray, k: np.ndarray, p: float, log_fact) -> np.ndarray:
    """P(X > k) for X ~ Binomial(n, p), elementwise, in log space, with
    log_fact(i) = log i! elementwise.

    Terms are summed outward from k + 1 until each falls below 2^-200 and
    has passed the mode; the pmf falls from there on, so the n terms left
    add at most n times the last one, which is added as the remainder.
    """
    lp, lq = math.log(p), math.log1p(-p)
    total = np.zeros(n.shape)
    j = k + 1
    while True:
        live = j <= n
        jj = np.where(live, j, n)
        log_pmf = (log_fact(n) - log_fact(jj) - log_fact(n - jj)
                   + jj * lp + (n - jj) * lq)
        term = np.where(live, np.exp(log_pmf), 0.0)
        total += term
        done = ~live | ((term < 2.0 ** -200) & (jj > (n + 1) * p))
        if done.all():
            return total + n * term
        j = j + 1


def _log_fact(i: np.ndarray) -> np.ndarray:
    return np.array([math.lgamma(v + 1) for v in i.tolist()])


# the largest row the exact budget admits: the dense float64 moment array,
# 8 rows to n_max, within _MAX_M_BYTES
_BUDGET_ROW = exact._MAX_M_BYTES // 64 - 1


@pytest.mark.parametrize("p", [0.5, 0.3, 0.02, 1e-3, 1e-6])
def test_window_tails_below_bound(p):
    # every n up to 30,000 and a log-spaced sample beyond, up to the largest
    # row the exact budget admits: the binomial mass beyond each end of the
    # DP's window, summed independently of the package, is at most
    # 2^-_TAIL_BITS, and every window holds the mode the weights start from
    lo, hi = _windows(_BUDGET_ROW, p)
    n = np.arange(_BUDGET_ROW + 1)
    mode = np.minimum(((n + 1) * p).astype(np.int64), n)
    assert ((lo <= mode) & (mode <= hi)).all()
    bound = 2.0 ** -_TAIL_BITS
    lf = _log_fact(np.arange(30_001))
    dense = n[2:30_001]
    sample = np.unique(np.geomspace(30_001, _BUDGET_ROW, 40).astype(np.int64))
    for rows, log_fact in ((dense, lf.__getitem__), (sample, _log_fact)):
        above = _mass_above(rows, hi[rows], p, log_fact)
        # n - X is Binomial(n, q)
        below = _mass_above(rows, rows - lo[rows], 1.0 - p, log_fact)
        assert above.max() <= bound, (above.max(), int(rows[above.argmax()]))
        assert below.max() <= bound, (below.max(), int(rows[below.argmax()]))


ROWS = ("ES", "EK", "EN", "VarS", "VarK", "VarN", "CovSK", "CovSN")


@pytest.mark.parametrize("p, n_max, at, precision", [
    (0.5, 16384, (16384,), "standard"),
    (0.5, 9000, (2, 3, 1000, 8999, 9000), "standard"),
    (0.3, 16384, (2, 777, 4096, 16384), "standard"),
    (0.3, 2, (2,), "standard"),
    (0.02, 16384, (16384,), "standard"),
    (0.02, 5000, (2, 64, 4999, 5000), "standard"),
    (0.5, 4096, (2, 4096), "extended"),
    (0.3, 4096, (100, 2048, 4095), "extended"),
    (0.02, 2048, (2, 2048), "extended"),
])
def test_rows_at_equal_full_table_bitwise(p, n_max, at, precision):
    # the DP over the cone of ``at`` runs the full table's arithmetic on
    # every row it fills
    part = compute(p, n_max, precision, at=at)
    assert part.at == at
    full = table(p, n_max, precision)
    for name in ROWS:
        np.testing.assert_array_equal(getattr(part, name)[list(at)],
                                      getattr(full, name)[list(at)])


def _scan_cone(at, p):
    """The cone by brute force: walk n downwards, marking the rows each
    needed row reads."""
    top = max(at)
    lows, highs = _windows(top, p)
    need = np.zeros(top + 1, dtype=bool)
    need[list(at)] = True
    for n in range(top, 1, -1):
        if need[n]:
            lo, hi = max(int(lows[n]), 1), min(int(highs[n]), n - 1)
            need[lo:hi + 1] = True
            need[n - hi:n - lo + 1] = True
    need[:2] = False
    return np.flatnonzero(need)


@pytest.mark.parametrize("p", [0.5, 0.3, 0.02, 1e-3])
@pytest.mark.parametrize("at", [(2,), (3,), (64,), (1000, 1001),
                                (5, 700, 16384), (9999, 16384)])
def test_cone_matches_brute_force_scan(p, at):
    lows, highs = _windows(max(at), p)
    np.testing.assert_array_equal(_cone(at, lows, highs), _scan_cone(at, p))


def test_table_at_holds_only_its_rows():
    t = compute(0.3, 300, at=[300, 50, 50])
    assert t.at == (50, 300)
    assert t.var_S(50) > 0.0
    with pytest.raises(IndexError, match="not among the rows"):
        t.var_S(100)
    full = compute(0.3, 300)
    for name, got, want in zip(t.COLUMNS, t.columns(), full.columns()):
        assert got == [want[50], want[300]], name
    with pytest.raises(ValueError, match="full table"):
        PoissonModel(t)
    for bad in ([], [1], [301]):
        with pytest.raises(ValueError, match="at must hold rows"):
            compute(0.3, 300, at=bad)


def test_budget_refused_before_dp_work(monkeypatch):
    def no_dp(*a):
        raise AssertionError("ran the DP")

    monkeypatch.setattr(exact, "_compute_centred", no_dp)
    # p = 0.3 at 2^20: the cone holds 27 % of the rows and 1.5e9 cells
    with pytest.raises(WorkBudgetExceeded, match="split outcomes"):
        compute(0.3, 2 ** 20, at=[2 ** 20])
    # the dense moment array to 2^22 takes 2^28 + 64 bytes
    with pytest.raises(WorkBudgetExceeded, match="bytes"):
        compute(0.5, 2 ** 22, at=[2 ** 22])
    with pytest.raises(WorkBudgetExceeded, match="split outcomes"):
        compute(0.5, 2 ** 20)


@pytest.mark.parametrize("p", [0.5, 0.3])
class TestTwoKeyOracle:
    """Every n=2 moment against the geometric common-prefix-length oracle."""

    def test_all_moments(self, p):
        t = compute(p, 4)
        want = two_key_oracle(p)
        assert_close(t.ES[2], want["ES"], rtol=1e-13, msg="ES")
        assert_close(t.EK[2], want["EK"], rtol=1e-13, msg="EK")
        assert_close(t.EN[2], want["EN"], rtol=1e-13, msg="EN")
        # raw second moments: E(XY) = Cov(X, Y) + E(X) E(Y)
        es, ek, en = t.ES[2], t.EK[2], t.EN[2]
        assert_close(t.VarS[2] + es * es, want["ES2"], rtol=1e-13, msg="ES2")
        assert_close(t.VarK[2] + ek * ek, want["EK2"], rtol=1e-13, msg="EK2")
        assert_close(t.CovSK[2] + es * ek, want["ESK"], rtol=1e-13, msg="ESK")
        assert_close(t.CovSN[2] + es * en, want["ESN"], rtol=1e-13, msg="ESN")
        assert_close(t.VarN[2] + en * en, want["EN2"], rtol=1e-13, msg="EN2")

    def test_rho_SK_is_one(self, p):
        t = compute(p, 4)
        assert_close(t.rho_SK(2), 1.0, atol=1e-12, msg="rho_SK(2)")


def test_known_values_at_half():
    t = compute(0.5, 8)
    assert_close(t.mean_S(2), 2.0, rtol=1e-14)
    assert_close(t.mean_K(2), 4.0, rtol=1e-14)
    assert_close(t.mean_N(2), 2.0, rtol=1e-14)
    assert_close(t.var_S(2), 2.0, rtol=1e-13)
    assert_close(t.cov_SK(2), 4.0, rtol=1e-13)
    assert_close(t.mean_depth(2), 2.0, rtol=1e-14)


_ROWS = MomentTable.COLUMNS[1:9]     # the eight stored rows


def test_boundary_rows_zero():
    t = compute(0.3, 8)
    for name in _ROWS:
        arr = getattr(t, name)
        assert arr[0] == 0.0 and arr[1] == 0.0


def test_exchange_symmetry():
    a = compute(0.3, 64)
    b = compute(0.7, 64)
    for name in _ROWS:
        np.testing.assert_allclose(getattr(a, name), getattr(b, name),
                                   rtol=1e-12, err_msg=name)


@settings(max_examples=25, deadline=None)
@given(p=st.floats(0.01, 0.99))
@example(p=0.5078125)
def test_exchange_symmetry_is_bitwise(p):
    # p and 1 - p share one canonical parameter pair, so the DP tables and
    # the asymptotic constants come out bit-identical, not merely close
    q = 1.0 - p
    a, b = compute(p, 512), compute(q, 512)
    for name in _ROWS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    ma, mb = params(p, IRRATIONAL), params(q, IRRATIONAL)
    assert (ma.h, ma.lam) == (mb.h, mb.lam)
    assert g2_general(ma, 0) == g2_general(mb, 0)


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_cauchy_schwarz_and_bounds(p):
    t = table(p, 512)
    for n in range(2, 513):
        vs, vk, vn = t.var_S(n), t.var_K(n), t.var_N(n)
        assert vs > 0 and vk > 0 and vn > 0
        assert t.cov_SK(n) ** 2 <= vs * vk * (1 + 1e-12)
        assert abs(t.rho_SK(n)) <= 1 + 1e-12
        assert abs(t.rho_SN(n)) <= 1 + 1e-12
        assert t.mean_K(n) >= n


def test_extended_matches_standard():
    a = compute(0.5, 256)
    b = compute(0.5, 256, "extended")
    np.testing.assert_allclose(a.ES, b.ES, rtol=1e-13)
    np.testing.assert_allclose(a.VarK + a.EK * a.EK, b.VarK + b.EK * b.EK,
                               rtol=1e-13)
    for n in (17, 100, 256):
        assert_close(a.var_K(n), b.var_K(n), rtol=1e-11, msg=f"var_K({n})")
        assert_close(a.rho_SK(n), b.rho_SK(n), rtol=1e-11, msg=f"rho({n})")


def test_tiny_weight_trimming_matches_extended():
    # at p = 1e-3 the float64 window reaches past underflow from n = 502 on,
    # and the DP drops the zero and subnormal weights at its ends; long
    # double's wider exponent range trims nowhere, so it is the reference
    p, n_max = 1e-3, 1000
    pc, qc = _canonical(p)
    lows, highs = _windows(n_max, pc)

    def trimmed(dtype):
        tiny = np.finfo(dtype).tiny
        return [n for n in range(2, n_max + 1)
                if min(_binom_weights(n, pc, qc, dtype, lows[n], highs[n])[[0, -1]])
                < tiny]

    f64 = trimmed(np.float64)
    assert (len(f64), f64[0]) == (496, 502)
    assert trimmed(np.longdouble) == []
    a, b = compute(p, n_max), compute(p, n_max, "extended")
    for name in _ROWS:
        x, y = getattr(a, name)[2:], getattr(b, name)[2:]
        # measured worst 1.9e-13 (VarN), the small-p cancellation of the
        # self-term denominator 1 - p^n - q^n at small n
        assert np.max(np.abs(x - y) / np.abs(y)) < 3e-13, name


def test_accessor_errors():
    t = compute(0.5, 16)
    with pytest.raises(IndexError):
        t.mean_S(17)
    with pytest.raises(DegenerateVariance):
        t.rho_SK(1)
    with pytest.raises(ValueError):
        t.mean_depth(0)


def test_precondition_validation():
    with pytest.raises(ValueError):
        compute(1.0, 16)
    with pytest.raises(ValueError):
        compute(0.5, 1)
    with pytest.raises(ValueError):
        compute(0.5, 16, "quad")
    # 1 - p rounds to 1, so the split weights would lose p altogether
    for p in (1e-17, 5e-17):
        for precision in ("standard", "extended"):
            with pytest.raises(ValueError, match=f"p={p!r}"):
                compute(p, 8, precision)


def _cli(args, capsys):
    assert main(args) == 0
    return capsys.readouterr().out


def test_csv_round_trip_values(capsys):
    lines = _cli(["exact", "--p", "0.5", "--nmax", "8"], capsys).strip().split("\n")
    assert lines[0].startswith("# config:")
    header = lines[1].split(",")
    assert header == list(MomentTable.COLUMNS)
    row2 = lines[2 + 2].split(",")  # n = 2
    assert row2[0] == "2"
    assert float(row2[1]) == 2.0
    assert float(row2[2]) == 4.0
    rho = float(lines[2 + 2].split(",")[9])
    assert abs(rho - 1.0) < 1e-12
    # n = 0 row carries nan correlations
    assert "nan" in lines[2]


def test_json_export(capsys):
    doc = json.loads(_cli(["exact", "--p", "0.3", "--nmax", "8",
                           "--format", "json"], capsys))
    assert doc["config"]["p"] == 0.3
    assert list(doc["columns"]) == list(MomentTable.COLUMNS)
    assert len(doc["columns"]["ES"]) == 9
    assert doc["columns"]["ES"][2] == pytest.approx(1 / (2 * 0.3 * 0.7))


@pytest.mark.parametrize("p,n_max", [(0.5, 8), (0.3, 300)])
def test_serialisation_matches_accessors(p, n_max, capsys):
    # the column-wise table, and the CLI files written from it, against a
    # row-by-row reference built from the accessors
    t = compute(p, n_max)
    rows = []
    for n in range(n_max + 1):
        rho_sk = rho_sn = float("nan")
        if n >= 2:
            rho_sk, rho_sn = t.rho_SK(n), t.rho_SN(n)
        rows.append([n, t.mean_S(n), t.mean_K(n), t.mean_N(n), t.var_S(n),
                     t.var_K(n), t.var_N(n), t.cov_SK(n), t.cov_SN(n),
                     rho_sk, rho_sn])
    cols = t.columns()
    assert [type(v) for v in (cols[0][0], cols[1][0])] == [int, float]
    assert repr([list(r) for r in zip(*cols)]) == repr(rows)
    args = ["exact", "--p", str(p), "--nmax", str(n_max)]
    lines = _cli(args, capsys).splitlines()[2:]
    assert lines == [",".join([str(r[0])] + [repr(x) for x in r[1:]])
                     for r in rows]
    doc = json.loads(_cli(args + ["--format", "json"], capsys))["columns"]
    assert doc["n"] == list(range(n_max + 1))
    assert repr(doc["RhoSN"]) == repr([r[10] for r in rows])


@pytest.mark.parametrize("name", ["VarS", "VarK", "VarN"])
def test_serialisation_refuses_degenerate_variance(name):
    t = compute(0.3, 16)
    bad = getattr(t, name).copy()
    bad[7] = 0.0
    t = dataclasses.replace(t, **{name: bad})
    with pytest.raises(DegenerateVariance, match="n=7"):
        t.columns()


def test_depth_accessor_is_mean_K_over_n():
    t = compute(0.3, 64)
    for n in (2, 10, 64):
        assert t.mean_depth(n) == pytest.approx(t.mean_K(n) / n, rel=1e-15)


def test_golden_rho_SN_1024():
    # regression anchor, first computed by this table (in (0.9, 1) as the
    # near-total S/N correlation requires)
    t = table(0.5, 1024)
    got = t.rho_SN(1024)
    assert 0.9 < got < 1.0
    assert_close(got, 0.9860162734025352, atol=1e-9, msg="rho_SN(1024)")


@functools.lru_cache(maxsize=None)   # p = 0.5 serves both precisions
def _mp_raw_moments(p: float, n_max: int, dps: int = 50):
    """E Y_n and E Y_n Y_n^T for Y = (S, K, N), n <= n_max, in mpmath.

    Written independently of the package: given the split k, Y_n = c +
    A (Y_k + Y'_{n-k}) with independent subtrees, c = (1, n, 0) and A adding
    the subtree sizes to N.  The k = 0, n outcomes contain Y_n itself, so
    each n solves (I - wb A) mu = r and (I - wb A (x) A) vec M = vec R.
    """
    with mp.workdps(dps):
        P = mpf(p)
        Q = 1 - P
        A = mp.matrix([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
        AA = mp.matrix(9, 9)
        for i in range(9):
            for j in range(9):
                AA[i, j] = A[i // 3, j // 3] * A[i % 3, j % 3]
        zero = [mpf(0)] * 3
        mu = [zero, zero]
        M = [[zero] * 3, [zero] * 3]
        for n in range(2, n_max + 1):
            w = [math.comb(n, k) * P ** k * Q ** (n - k) for k in range(n + 1)]
            wb = w[0] + w[n]
            m = [mpf(0)] * 3
            R2 = [[mpf(0)] * 3 for _ in range(3)]
            for k in range(1, n):
                a, b, Ma, Mb = mu[k], mu[n - k], M[k], M[n - k]
                for i in range(3):
                    m[i] += w[k] * (a[i] + b[i])
                    for j in range(3):
                        R2[i][j] += w[k] * (Ma[i][j] + Mb[i][j]
                                            + a[i] * b[j] + b[i] * a[j])
            c = mp.matrix([1, n, 0])
            mvec = mp.matrix(m)
            mu_n = mp.lu_solve(mp.eye(3) - wb * A, c + A * mvec)
            Am = A * (mvec + wb * mu_n)   # A E(Y_k + Y'_{n-k}), all k
            R = c * c.T + c * Am.T + Am * c.T + A * mp.matrix(R2) * A.T
            vec_m = mp.lu_solve(mp.eye(9) - wb * AA,
                                mp.matrix([R[i // 3, i % 3] for i in range(9)]))
            mu.append([mu_n[i] for i in range(3)])
            M.append([[vec_m[3 * i + j] for j in range(3)] for i in range(3)])
        return mu, M


_ORACLE_P = (0.5, 0.3, 0.1, 0.02)


@pytest.mark.parametrize(
    "p, precision",
    [pytest.param(p, "standard", id=str(p)) for p in _ORACLE_P]
    + [pytest.param(p, "extended", id=f"{p}-extended") for p in _ORACLE_P])
def test_second_moments_match_mpmath_oracle(p, precision):
    n_max = 128
    if precision == "standard":
        p_ref, rtol = p, 3e-14
    else:
        # 1 ulp of the correctly rounded value, at the canonical p that
        # compute() runs with (at p = 0.02 it differs from p by 8.9e-16)
        p_ref, rtol = 1.0 - max(p, 1.0 - p), 2.3e-16
    mu, M = _mp_raw_moments(p_ref, n_max)
    t = compute(p, n_max, precision)
    accessors = {"var_S": (0, 0), "var_K": (1, 1), "var_N": (2, 2),
                 "cov_SK": (0, 1), "cov_SN": (0, 2)}
    with mp.workdps(50):
        for n in range(2, n_max + 1):
            for name, (i, j) in accessors.items():
                want = float(M[n][i][j] - mu[n][i] * mu[n][j])
                assert_close(getattr(t, name)(n), want, rtol=rtol,
                             msg=f"{name}({n}) at p={p}, {precision}")
