"""Poisson-model checks: functional equations, tolls, Poissonized moments."""

import math

import numpy as np
import pytest

from conftest import table
from poisson import GuardExceeded, PoissonModel, PoissonSeries
from triemoments import compute

Z_GRID = (1.0, 2.0, 3.7, 5.0, 8.0, 12.0, 16.0, 20.0)


@pytest.fixture(scope="module")
def model_03():
    return PoissonModel(table(0.3, 512))


@pytest.fixture(scope="module")
def model_05():
    return PoissonModel(table(0.5, 512))


def test_zero_series():
    s = PoissonSeries(np.zeros(200))
    for z in (0.5, 3.0, 10.0):
        assert s.eval(z) == 0.0
        assert s.eval(z, 1) == 0.0


def test_guard():
    s = PoissonSeries(np.arange(120.0))
    assert 0.0 < s.guard_z < 120.0
    with pytest.raises(GuardExceeded):
        s.eval(s.guard_z + 1.0)
    with pytest.raises(ValueError):
        s.eval(1.0, derivative=2)


def test_poisson_eval_known_series():
    # m_n = n gives e^-z sum n z^n/n! = z; derivative 1
    s = PoissonSeries(np.arange(200.0))
    for z in (1.0, 5.0, 20.0):
        assert abs(s.eval(z) - z) < 1e-12 * z
        assert abs(s.eval(z, 1) - 1.0) < 1e-12


def test_model_needs_a_full_table():
    t = compute(0.3, 300, at=[300, 50, 50])
    with pytest.raises(ValueError, match="full table"):
        PoissonModel(t)


def test_derivative_matches_finite_difference(model_03):
    f = model_03.f10
    for z in (2.0, 7.0, 15.0):
        h = 1e-6
        fd = (f.eval(z + h) - f.eval(z - h)) / (2 * h)
        assert abs(f.eval(z, 1) - fd) < 1e-8 * max(1.0, abs(fd))


@pytest.mark.parametrize("p_fixture", ["model_03", "model_05"])
def test_mean_functional_equations(p_fixture, request):
    # size toll: 1 - (1+z)e^-z ; KPL toll: z(1 - e^-z)
    m = request.getfixturevalue(p_fixture)
    p, q = m.p, m.q
    for z in Z_GRID:
        r1 = (m.f10.eval(z) - m.f10.eval(p * z) - m.f10.eval(q * z)
              - (1.0 - (1.0 + z) * math.exp(-z)))
        r2 = (m.f01.eval(z) - m.f01.eval(p * z) - m.f01.eval(q * z)
              - z * (1.0 - math.exp(-z)))
        assert abs(r1) < 1e-8, f"size equation residual at z={z}"
        assert abs(r2) < 1e-8, f"KPL equation residual at z={z}"


@pytest.mark.parametrize("p_fixture", ["model_03", "model_05"])
def test_covariance_functional_equation(p_fixture, request):
    m = request.getfixturevalue(p_fixture)
    p, q = m.p, m.q
    for z in Z_GRID:
        resid = m.cov(z) - m.cov(p * z) - m.cov(q * z) - m.h1(z) - m.h2(z)
        assert abs(resid) < 1e-6, f"covariance equation residual at z={z}"


def test_h1_vanishes_at_half(model_05):
    for z in Z_GRID:
        assert model_05.h1(z) == 0.0


def test_h2_exponentially_small(model_03, model_05):
    for m in (model_03, model_05):
        assert abs(m.h2(20.0)) < 1e-4


def test_tolls_quadratic_at_zero(model_03):
    assert abs(model_03.h1(0.01) + model_03.h2(0.01)) < 1e-3


def test_poissonized_variance_positive(model_05, model_03):
    for m in (model_05, model_03):
        for z in (2.0, 5.0, 10.0, 20.0):
            assert m.var_S(z) > 0.0
            assert m.var_K(z) > 0.0


def test_poissonized_covariance_depoissonizes(table_05):
    # loose heuristic: C(n)/n tracks cov_SK(n)/n at large n
    m = PoissonModel(table_05)
    n = 500
    lhs = m.cov(float(n)) / n
    rhs = table_05.cov_SK(n) / n
    assert abs(lhs - rhs) < 5e-2 * abs(rhs)


# 1 - e^-x (1 + x) = sum_{m >= 2} (-1)^m (m - 1) x^m / m!, highest power
# first; the terms past m = 22 are below 1e-20 of the sum at x < 1
_SIZE_SERIES = [(-1) ** m * (m - 1) / math.factorial(m)
                for m in range(22, 1, -1)] + [0.0, 0.0]


def _word_sums(p, z):
    """f10, f10', f01, f01' at z as closed-form sums over trie words.

    Under Poisson(z) keys a word of probability P = p^i q^j holds Poisson(x)
    keys, x = P z, and is an internal node when it holds two or more, so
    ES and EK add 1 - e^-x (1 + x) and x (1 - e^-x) per word; the
    C = C(i + j, i) words of type (i, j) share them.  Depth d = i + j runs
    until z^2 sum C P^2, which bounds the terms of every deeper level,
    falls below 1e-30.
    """
    q, sums, d = 1.0 - p, np.zeros(4), 0
    while True:
        i = np.arange(d + 1)
        c = np.array([float(math.comb(d, k)) for k in range(d + 1)])
        w = p ** i * q ** (d - i)
        x = w * z
        e, f = np.exp(-x), -np.expm1(-x)
        # the series where the closed form would cancel
        size = np.where(x < 1.0, np.polyval(_SIZE_SERIES, x), 1.0 - e * (1.0 + x))
        sums += [(c * size).sum(), (c * w * x * e).sum(),
                 (c * x * f).sum(), (c * w * (f + x * e)).sum()]
        if z * z * (c * w * w).sum() < 1e-30:
            return sums
        d += 1


@pytest.mark.parametrize("p", [0.2, 0.3, 0.5])
def test_means_match_word_type_sums(p):
    m = PoissonModel(compute(p, 400))
    for z in (2.0, 7.5, 20.0):
        want = _word_sums(p, z)
        got = (m.f10.eval(z), m.f10.eval(z, 1), m.f01.eval(z), m.f01.eval(z, 1))
        for name, g, w in zip(("f10", "f10'", "f01", "f01'"), got, want):
            assert abs(g - w) <= 1e-13 * abs(w), f"{name} at z={z}: {g!r} {w!r}"
