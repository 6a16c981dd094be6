"""Poisson-model checks: functional equations, tolls, Poissonized moments."""

import math

import numpy as np
import pytest

from conftest import table
from triemoments import GuardExceeded
from triemoments.exact import PoissonModel, PoissonSeries

Z_GRID = (1.0, 2.0, 3.7, 5.0, 8.0, 12.0, 16.0, 20.0)


@pytest.fixture(scope="module")
def model_03():
    return PoissonModel(table(0.3, 512))


@pytest.fixture(scope="module")
def model_05():
    return PoissonModel(table(0.5, 512))


def test_zero_series():
    s = PoissonSeries.from_moments(np.zeros(200))
    for z in (0.5, 3.0, 10.0):
        assert s.eval(z) == 0.0
        assert s.eval(z, 1) == 0.0


def test_guard():
    s = PoissonSeries.from_moments(np.arange(120.0))
    assert 0.0 < s.guard_z < 120.0
    with pytest.raises(GuardExceeded):
        s.eval(s.guard_z + 1.0)
    with pytest.raises(ValueError):
        s.eval(1.0, derivative=2)


def test_poisson_eval_known_series():
    # m_n = n gives e^-z sum n z^n/n! = z; derivative 1
    s = PoissonSeries.from_moments(np.arange(200.0))
    for z in (1.0, 5.0, 20.0):
        assert abs(s.eval(z) - z) < 1e-12 * z
        assert abs(s.eval(z, 1) - 1.0) < 1e-12


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
