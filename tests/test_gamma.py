import cmath
import math

import mpmath
import numpy as np
import pytest

from triemoments.errors import PoleError
from triemoments.gammafn import EULER_GAMMA, cdigamma, cgamma

LN2 = math.log(2.0)


def test_gamma_half():
    assert abs(cgamma(0.5) - math.sqrt(math.pi)) < 1e-14


def test_gamma_small_integers():
    for n, want in ((1, 1.0), (2, 1.0), (3, 2.0), (4, 6.0), (5, 24.0)):
        assert abs(cgamma(n) - want) < 1e-13 * want


def test_gamma_imaginary_axis_identity():
    # |Gamma(1+it)|^2 = pi t / sinh(pi t), at the harmonic frequencies
    for k in (1, 2, 3, 5):
        t = 2.0 * math.pi * k / LN2
        lhs = abs(cgamma(complex(1.0, t))) ** 2
        rhs = math.pi * t / math.sinh(math.pi * t)
        assert abs(lhs - rhs) < 1e-12 * rhs


def test_gamma_recurrence_sweep():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        if abs(z.imag) < 0.1:
            continue  # stay clear of the pole line
        lhs = cgamma(z + 1)
        rhs = z * cgamma(z)
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)
        checked += 1


def test_gamma_reflection_consistency():
    z = complex(-3.3, 2.2)
    prod = cgamma(z) * cgamma(1 - z)
    want = math.pi / cmath.sin(math.pi * z)
    assert abs(prod - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("x", [-0.5, 0.0, 0.25])
@pytest.mark.parametrize("y", [250.0, -250.0, 400.0, -400.0])
def test_gamma_far_from_real_axis_matches_mpmath(x, y):
    # sin(pi z) overflows for |Im z| past about 226, although Gamma(z) is
    # only about 1e-170 to 1e-276 here
    with mpmath.workdps(30):
        want = complex(mpmath.gamma(mpmath.mpc(x, y)))
    assert abs(cgamma(complex(x, y)) - want) <= 1e-12 * abs(want)


def test_gamma_pole():
    for z in (0, -1, -7, 0.0, -2.0 + 0j):
        with pytest.raises(PoleError):
            cgamma(z)


def test_digamma_one_is_minus_euler():
    assert abs(cdigamma(1.0).real + EULER_GAMMA) < 1e-14
    assert abs(cdigamma(1.0).imag) < 1e-15


def test_digamma_recurrence():
    rng = np.random.default_rng(5)
    for _ in range(60):
        z = complex(rng.uniform(0.2, 35), rng.uniform(-35, 35))
        lhs = cdigamma(z + 1)
        rhs = cdigamma(z) + 1.0 / z
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_digamma_half():
    # psi(1/2) = -gamma - 2 ln 2
    want = -EULER_GAMMA - 2.0 * LN2
    assert abs(cdigamma(0.5).real - want) < 1e-13


@pytest.mark.parametrize("x", [-60.5, -0.5, 0.25, 60.0, 400.0])
@pytest.mark.parametrize("y", [250.0, -250.0, 400.0, 1e4])
def test_digamma_off_strip_matches_mpmath(x, y):
    # far outside |Re z|, |Im z| <= 40: the reflection's pi / tan(pi z) at
    # large |Im z| and the Bernoulli tail at large |z|
    with mpmath.workdps(30):
        want = complex(mpmath.digamma(mpmath.mpc(x, y)))
    assert abs(cdigamma(complex(x, y)) - want) <= 1e-13 * abs(want)


def test_digamma_pole():
    with pytest.raises(PoleError):
        cdigamma(-4)
