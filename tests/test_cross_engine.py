"""Agreement checks between the exact DP and the asymptotic engine."""

import math

import numpy as np

from conftest import table
from triemoments import compute, fluct_eval, params, sym_coeffs


def test_variance_fluctuations_match_table(table_05):
    c1 = sym_coeffs("g1")
    c3 = sym_coeffs("g3")
    g10 = abs(c1.value(0))
    g30 = abs(c3.value(0))
    for n in (256, 1024, 4096):
        assert abs(table_05.var_S(n) / n - fluct_eval(c1, n)) < 1e-2 * g10
        assert abs(table_05.var_K(n) / n - fluct_eval(c3, n)) < 1e-2 * g30


def test_lambda_slope_p04():
    t = table(0.4, 8192)
    m = params(0.4)
    ns = [2 ** e for e in range(9, 14)]
    slope = float(np.polyfit(np.log(ns),
                             [t.var_K(n) / n for n in ns], 1)[0])
    assert abs(slope - m.lam) / m.lam < 0.05


def test_mean_depth_tracks_log_over_entropy(table_03):
    # E K_n / n = log(n)/h + O(1): the difference stays flat over the range
    h = params(0.3).h
    diffs = [table_03.mean_K(2 ** e) / 2 ** e - math.log(2 ** e) / h
             for e in range(10, 15)]
    assert max(diffs) - min(diffs) < 0.05
    assert all(abs(d) < 5.0 for d in diffs)


def test_rho_SN_monotone_trend(table_03):
    lo = table_03.rho_SN(2 ** 8)
    hi = table_03.rho_SN(2 ** 12)
    assert hi > lo
    assert hi > 0.9


def test_large_n_rows_match_fluctuation_sums_within_c_over_n():
    # Four n over three quarters of one period of log2 n, ending at 2^16,
    # solved over their shared dependency cone.  At p = 1/2 the gaps of
    # rho(S, K) to F(n), and of VarS/n, CovSK/n and VarK/n to F[g1], F[g2]
    # and F[g3], fall like 1/n; n times each gap measured 0.1107-0.1110,
    # 5.1e-5, 5.8e-4 and 1.039-1.042 at these n, so C sits above each.
    ns = [round(2 ** (15.25 + j / 4)) for j in range(4)]
    t = compute(0.5, ns[-1], at=ns)
    c1, c2, c3 = (sym_coeffs(f) for f in ("g1", "g2", "g3"))
    for n in ns:
        f1, f2, f3 = (fluct_eval(c, n) for c in (c1, c2, c3))
        assert abs(t.rho_SK(n) - f2 / math.sqrt(f1 * f3)) < 0.12 / n
        assert abs(t.var_S(n) / n - f1) < 1e-4 / n
        assert abs(t.cov_SK(n) / n - f2) < 1e-3 / n
        assert abs(t.var_K(n) / n - f3) < 1.1 / n
