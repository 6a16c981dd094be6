import numpy as np

from triemoments.dd import DD, two_prod, two_sum


def test_two_sum_exact():
    s, e = two_sum(1e16, 1.0)
    assert s + e == 1e16 + 1.0
    assert e == 1.0  # the 1.0 cannot be stored in s


def test_two_prod_exact():
    a, b = 1.0 + 2.0 ** -30, 1.0 - 2.0 ** -30
    p, e = two_prod(a, b)
    # a*b = 1 - 2^-60 exactly; p rounds to 1.0 and e recovers the rest
    assert p == 1.0
    assert e == -(2.0 ** -60)


def test_dd_add_keeps_low_part():
    a = DD(np.array([1.0]))
    b = DD(np.array([2.0 ** -80]))
    c = a + b
    assert c.hi[0] == 1.0
    assert c.lo[0] == 2.0 ** -80


def test_dd_mul_div_roundtrip():
    rng = np.random.default_rng(10)
    x = DD(rng.random(64) + 0.5, rng.random(64) * 1e-20)
    y = DD(rng.random(64) + 0.5, rng.random(64) * 1e-20)
    z = (x * y) / y
    assert np.all(np.abs(z.hi - x.hi) <= 4e-16 * np.abs(x.hi))
    assert np.all(np.abs((z - x).to_float()) <= 1e-30 * np.abs(x.hi))


def test_dd_sum_cancellation():
    x = DD(np.array([1e16, 1.0, -1e16, 2.0 ** -70]))
    s = x.sum()
    assert s.hi == 1.0
    assert s.lo == 2.0 ** -70


def test_dd_broadcast_matrix_times_vector():
    rows = DD(np.arange(6, dtype=float).reshape(2, 3))
    w = DD(np.array([1.0, 10.0, 100.0]))
    s = (rows * w).sum(axis=-1)
    assert s.hi.shape == (2,)
    assert s.to_float().tolist() == [210.0, 543.0]
