import math

import numpy as np
import pytest
from mpmath import mp, mpf

from conftest import assert_close
from triemoments import (IRRATIONAL, FourierCoeffs, NotPositiveDefinite,
                         RatioSpec, RatioSpecMismatch, SymMatrix2,
                         TruncationNotConverged, F_of_n,
                         F_profile, cov_coeffs, detect_ratio, fluct_eval,
                         g1_sym, g2_general, g2_sym, g3_sym, invsqrt2, params,
                         sigma_matrix, sqrt2, sym_coeffs)

LN2 = math.log(2.0)

# high-precision reference values (40-digit series evaluation, independent
# gamma implementation), frozen as regression constants
G1_0 = 0.8458586230760012854977574
G2_0 = 1.779227486248220068208008
G3_0 = 4.35290669894540060374888
F_AVG = 0.9272416035045288337489314
G1_1 = complex(5.07885302961e-7, -6.74665294887e-7)
G2_1 = complex(-7.42056037053e-6, 4.0270803771e-6)
G3_1 = complex(-1.69634400863e-5, 7.07348829922e-6)


def _g2_0_mpmath(p: float, dps: int = 30) -> float:
    """g2_0 for irrational log p/log q, summed directly in mpmath.

    At k = 0 the gamma factors reduce to rationals: the leading term is
    (log 2 - 1/2)/h, the digamma term -(1 - (p log^2 p + q log^2 q)/(2h))/h^2
    and Gamma(ell - 1)/ell! = 1/(ell (ell - 1)) in the ell series.
    """
    with mp.workdps(dps):
        P = mpf(p)
        Q = 1 - P
        lp, lq = mp.log(P), mp.log(Q)
        h = -(P * lp + Q * lq)
        lead = (mp.log(2) - mpf(1) / 2) / h
        digamma = -(1 - (P * lp ** 2 + Q * lq ** 2) / (2 * h)) / h ** 2
        tol = mpf(10) ** -dps
        total, pl, ql, ell = mpf(0), P, Q, 1
        while True:
            ell += 1
            pl *= P
            ql *= Q
            t = ((-1) ** ell * (pl + ql) / (1 - pl - ql)
                 * (2 * ell * ell - 2 * ell + 1) / (ell * (ell - 1)))
            total += t
            if abs(t) < tol:
                return float(lead + digamma + total / h)


class TestParams:
    def test_half(self):
        m = params(0.5)
        assert m.h == pytest.approx(LN2, rel=1e-15)
        assert m.lam == 0.0
        assert m.ratio == RatioSpec(1, 1)
        assert m.ratio_source == "detected"

    def test_lambda_forms_agree(self):
        for p in (0.2, 0.3, 0.4, 0.45, 0.6180339887498949):
            m = params(p)
            q = 1.0 - p
            alt = ((p * math.log(p) ** 2 + q * math.log(q) ** 2) - m.h ** 2) / m.h ** 3
            assert_close(m.lam, alt, rtol=1e-13, msg=f"lambda at p={p}")

    def test_lambda_positive_off_half(self):
        assert params(0.3).lam > 0.0
        assert params(0.7).lam == pytest.approx(params(0.3).lam, rel=1e-12)

    def test_ratio_detector_quadratic_roots(self):
        # p = q^2 at p = (3-sqrt(5))/2: log p / log q = 2
        p = (3.0 - math.sqrt(5.0)) / 2.0
        assert detect_ratio(p) == RatioSpec(2, 1)
        # q = p^2 at p = (sqrt(5)-1)/2: log p / log q = 1/2
        p = (math.sqrt(5.0) - 1.0) / 2.0
        assert detect_ratio(p) == RatioSpec(1, 2)

    def test_ratio_detector_irrational(self):
        assert detect_ratio(0.3) is None
        assert params(0.3).ratio is None
        # log p/log q ~ 2e10: a convergent with l <= 64 but r far above it
        assert detect_ratio(1e-9) is None

    def test_supplied_ratio_checked(self):
        m = params(0.5, RatioSpec(1, 1))
        assert m.ratio_source == "supplied"
        with pytest.raises(RatioSpecMismatch):
            params(0.5, RatioSpec(3, 1))

    def test_forced_irrational(self):
        m = params(0.5, IRRATIONAL)
        assert m.ratio is None
        assert m.ratio_source == "forced-irrational"

    def test_chi(self):
        m = params(0.5)
        assert m.chi(1) == pytest.approx(2j * math.pi / LN2)
        assert m.chi(-2) == m.chi(2).conjugate()
        with pytest.raises(ValueError):
            params(0.3).chi(1)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            params(0.0)

    def test_symmetric_case(self):
        # the one p = 1/2 rule of asym, compare and sigma_matrix
        assert params(0.5).symmetric and params(0.5 + 2 ** -52).symmetric
        assert not params(0.5, IRRATIONAL).symmetric
        assert not params(0.3).symmetric and not params(0.5 + 1e-12).symmetric


class TestSymCoefficients:
    def test_k0_values(self):
        assert_close(g1_sym(0).real, G1_0, rtol=1e-12, msg="g1_0")
        assert_close(g2_sym(0).real, G2_0, rtol=1e-12, msg="g2_0")
        assert_close(g3_sym(0).real, G3_0, rtol=1e-12, msg="g3_0")

    def test_k0_real(self):
        for fn in (g1_sym, g2_sym, g3_sym):
            assert abs(fn(0).imag) < 1e-12

    def test_k0_strictly_positive(self):
        assert g1_sym(0).real > 0.0
        assert g3_sym(0).real > 0.0

    def test_k1_values(self):
        assert_close(abs(g1_sym(1) - G1_1), 0.0, atol=1e-15, msg="g1_1")
        assert_close(abs(g2_sym(1) - G2_1), 0.0, atol=1e-14, msg="g2_1")
        assert_close(abs(g3_sym(1) - G3_1), 0.0, atol=1e-14, msg="g3_1")

    def test_conjugate_symmetry(self):
        for fn in (g1_sym, g2_sym, g3_sym):
            for k in (1, 2, 3):
                assert abs(fn(-k) - fn(k).conjugate()) < 1e-18

    def test_average_ratio(self):
        got = g2_sym(0).real / math.sqrt(g1_sym(0).real * g3_sym(0).real)
        assert_close(got, F_AVG, atol=1e-10, msg="F average")

    def test_decay_in_k(self):
        for fn in (g1_sym, g2_sym, g3_sym):
            mags = [abs(fn(k)) for k in range(0, 4)]
            assert all(mags[i + 1] < mags[i] for i in range(3))


class TestGeneralCovariance:
    def test_matches_symmetric_case(self):
        # every harmonic up to asym's --kmax cap, k >= 40 included
        m = params(0.5)
        for k in range(101):
            diff = abs(g2_general(m, k) - g2_sym(k))
            assert diff < 1e-9, f"k={k}: diff={diff:.2e}"

    def test_irrational_real(self):
        g = g2_general(params(0.3), 0)
        assert abs(g.imag) < 1e-12
        assert g.real > 0.0

    def test_irrational_k_nonzero_rejected(self):
        with pytest.raises(ValueError):
            g2_general(params(0.3), 1)

    def test_truncation_error_raised(self):
        # the ell series decays like 0.999999^ell: past the term cap
        with pytest.raises(TruncationNotConverged):
            g2_general(params(0.999999), 0)

    @pytest.mark.parametrize("p", [0.02, 0.98, 0.99, 0.999])
    def test_k0_matches_mpmath_near_endpoints(self, p):
        # the slowly decaying tails at skewed p (tens of thousands of terms
        # at 0.999) are summed to convergence and keep their accuracy
        model = params(p)
        assert not model.rational
        want = _g2_0_mpmath(p)
        got = g2_general(model, 0)
        assert got.imag == 0.0
        assert_close(got.real, want, rtol=1e-13, msg=f"g2_0 at p={p}")

    def test_symmetric_under_p_swap(self):
        # p and 1 - p run on one canonical pair: bit-identical coefficients
        for p in (0.3, 0.1, 0.02):
            assert g2_general(params(p), 0) == g2_general(params(1 - p), 0), p
        # rational case: the ratio flips with p, the harmonics chi_k do not
        p = (3.0 - math.sqrt(5.0)) / 2.0
        a, b = params(p), params(1 - p)
        assert (a.ratio, b.ratio) == (RatioSpec(2, 1), RatioSpec(1, 2))
        assert cov_coeffs(a, 3).values == cov_coeffs(b, 3).values

    @pytest.mark.parametrize("p, ratio", [(0.3819660112501051, RatioSpec(2, 1)),
                                          (0.47331101329926406, RatioSpec(7, 6))])
    def test_rational_harmonics_to_kmax_cap(self, p, ratio):
        # the j-convolution of harmonic k peaks near j = k, so it must run
        # past |k|: every k up to asym's --kmax cap of 100 converges, and the
        # harmonics decay from k = 0
        m = params(p)
        assert m.ratio == ratio
        mags = [abs(g2_general(m, k)) for k in range(101)]
        assert all(math.isfinite(v) for v in mags)
        assert all(mags[k + 1] <= mags[k] for k in range(100))
        assert mags[1] < 1e-7 * mags[0]

    def test_harmonics_tiny_vs_k0(self):
        m = params(0.5)
        assert abs(g2_general(m, 1)) < 1e-4 * abs(g2_general(m, 0))

    def test_strongly_skewed_p(self):
        # needs ell in the hundreds; the gamma/factorial ratio must not
        # overflow, and p <-> q symmetry must survive
        a = g2_general(params(0.9), 0)
        b = g2_general(params(0.1), 0)
        assert math.isfinite(a.real) and a.real > 0.0
        assert_close(a.real, b.real, rtol=1e-11, msg="g2_0 at p=0.9 vs 0.1")


class TestFluctuation:
    def test_constant_coefficients(self):
        c = cov_coeffs(params(0.3))
        assert c.k_max == 0
        v0 = fluct_eval(c, 100.0)
        assert fluct_eval(c, 12345.0) == v0

    def test_periodicity(self):
        c2 = sym_coeffs("g2")
        for n in (3.7, 100.0, 4096.0):
            assert abs(fluct_eval(c2, n) - fluct_eval(c2, 2 * n)) < 1e-12

    def test_requires_n_above_one(self):
        with pytest.raises(ValueError):
            fluct_eval(sym_coeffs("g1"), 1.0)

    def test_invariants_enforced(self):
        c = sym_coeffs("g3", k_max=4)
        for k in (1, 2, 3, 4):
            assert c.value(-k) == c.value(k).conjugate()
            assert abs(c.value(k)) < abs(c.value(0))
        # a harmonic no smaller than g_0 is refused
        g = (1.5 + 0j, 0.1 + 0.2j, 1.5j)
        with pytest.raises(ValueError, match="decay"):
            FourierCoeffs(family="g2", p=0.5, values=g, chi_unit=c.chi_unit)
        assert FourierCoeffs(family="g2", p=0.5, values=g[:2],
                             chi_unit=c.chi_unit).k_max == 1

    def test_coeff_json(self):
        c = sym_coeffs("g1", k_max=2)
        doc = c.doc()
        assert doc["family"] == "g1"
        assert len(doc["coefficients"]) == 5
        assert doc["coefficients"][2]["k"] == 0
        assert doc["coefficients"][3] == {"k": 1, "re": c.value(1).real,
                                          "im": c.value(1).imag}


class TestF:
    def test_period_one_in_log2(self):
        for n in (77.0, 1000.0, 65536.0):
            assert abs(F_of_n(n) - F_of_n(2 * n)) < 1e-12

    def test_mean_over_period(self):
        _, f = F_profile(points=512)
        assert_close(f.mean(), F_AVG, atol=1e-6, msg="period mean of F")

    def test_amplitude_band(self):
        _, f = F_profile(points=512)
        spread = f.max() - f.min()
        assert 1e-6 < spread <= 3e-5
        assert np.abs(f - f.mean()).max() <= 1.5e-5 * 1.05

    def test_values_near_average(self):
        assert abs(F_of_n(1024.0) - F_AVG) < 2e-5


class TestMatrix:
    def test_identity(self):
        m = SymMatrix2(1.0, 0.0, 1.0)
        assert sqrt2(m) == m
        assert invsqrt2(m) == m

    def test_diagonal(self):
        m = SymMatrix2(4.0, 0.0, 9.0)
        assert sqrt2(m) == SymMatrix2(2.0, 0.0, 3.0)
        r = invsqrt2(m)
        assert r.a == pytest.approx(0.5, rel=1e-15)
        assert r.c == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.normal(size=(2, 2))
            mm = x.T @ x + 0.05 * np.eye(2)
            m = SymMatrix2(mm[0, 0], mm[0, 1], mm[1, 1])
            r = sqrt2(m)
            np.testing.assert_allclose(r.as_array() @ r.as_array(),
                                       m.as_array(), rtol=1e-12, atol=1e-12)

    def test_invsqrt_whitens(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            x = rng.normal(size=(2, 2))
            mm = x.T @ x + 0.05 * np.eye(2)
            m = SymMatrix2(mm[0, 0], mm[0, 1], mm[1, 1])
            w = invsqrt2(m)
            np.testing.assert_allclose(w.as_array() @ m.as_array() @ w.as_array(),
                                       np.eye(2), rtol=0, atol=1e-10)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            sqrt2(SymMatrix2(1.0, 2.0, 1.0))
        with pytest.raises(NotPositiveDefinite):
            invsqrt2(SymMatrix2(-1.0, 0.0, 1.0))

    def test_apply(self):
        m = SymMatrix2(2.0, 1.0, 3.0)
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]])
        np.testing.assert_allclose(m.apply(pts),
                                   pts @ m.as_array().T)


class TestSigma:
    def test_positive_definite_large_n(self):
        s = sigma_matrix(params(0.5), 1_000_000)
        assert s.is_positive_definite()

    def test_entries_scale_linearly(self):
        m = params(0.5)
        a = sigma_matrix(m, 1024)
        b = sigma_matrix(m, 2048)
        # doubling n at fixed fractional log2 n scales all entries by 2
        assert b.a == pytest.approx(2 * a.a, rel=1e-12)
        assert b.b == pytest.approx(2 * a.b, rel=1e-12)
        assert b.c == pytest.approx(2 * a.c, rel=1e-12)

    def test_unavailable_off_half(self):
        with pytest.raises(ValueError, match="only for p = 1/2"):
            sigma_matrix(params(0.3), 1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            sigma_matrix(params(0.5), 1)
