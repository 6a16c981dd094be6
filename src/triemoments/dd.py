"""Double-double arithmetic on numpy arrays.

A value is a pair (hi, lo) with hi = fl(hi + lo) and |lo| <= ulp(hi)/2,
giving ~31 significant digits.  All kernels are branch-free elementwise
numpy expressions, so DD works on scalars and arrays alike.  No FMA is
assumed; products use Dekker splitting (exact while |x| < 2^996).
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2^27 + 1


def two_sum(a, b):
    """Knuth two-sum: s + e == a + b exactly, s = fl(a + b)."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def quick_two_sum(a, b):
    """Two-sum assuming |a| >= |b|."""
    s = a + b
    e = b - (s - a)
    return s, e


def split(a):
    """Dekker split into high/low 26-bit halves: hi + lo == a exactly."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    """p + e == a * b exactly, p = fl(a * b)."""
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def _pad_pow2(x):
    m = x.shape[-1]
    p = 1 << max(m - 1, 0).bit_length()
    if p == m:
        return x
    pad = np.zeros(x.shape[:-1] + (p - m,), dtype=x.dtype)
    return np.concatenate([x, pad], axis=-1)


def _renorm(hi, e1, e2):
    s, e = quick_two_sum(hi, e1)
    return quick_two_sum(s, e + e2)


class DD:
    """A double-double scalar or array.

    Supports +, -, *, / against DD, floats and float arrays, slicing, and
    an accurate .sum().  Construction from a single float array is exact.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi, dtype=np.float64)
        self.lo = np.zeros_like(self.hi) if lo is None else np.asarray(lo, dtype=np.float64)

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "DD":
        if isinstance(other, DD):
            return other
        return DD(other)

    def __getitem__(self, idx) -> "DD":
        return DD(self.hi[idx], self.lo[idx])

    def __setitem__(self, idx, value: "DD"):
        self.hi[idx] = value.hi
        self.lo[idx] = value.lo

    def to_float(self):
        return self.hi + self.lo

    def __repr__(self):
        return f"DD({self.hi!r}, {self.lo!r})"

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        s1, s2 = two_sum(self.hi, o.hi)
        t1, t2 = two_sum(self.lo, o.lo)
        s2 = s2 + t1
        s1, s2 = quick_two_sum(s1, s2)
        s2 = s2 + t2
        hi, lo = quick_two_sum(s1, s2)
        return DD(hi, lo)

    __radd__ = __add__

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __sub__(self, other):
        return self.__add__(-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        p, e = two_prod(self.hi, o.hi)
        e = e + (self.hi * o.lo + self.lo * o.hi)
        hi, lo = quick_two_sum(p, e)
        return DD(hi, lo)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        q1 = self.hi / o.hi
        r = self - o * DD(q1)
        q2 = (r.hi + r.lo) / o.hi
        r = r - o * DD(q2)
        q3 = (r.hi + r.lo) / o.hi
        s, e = two_sum(q1, q2)
        hi, lo = _renorm(s, e, q3)
        return DD(hi, lo)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def sum(self, axis=-1) -> "DD":
        """Accurate sum along an axis via pairwise double-double folding."""
        hi = np.moveaxis(np.atleast_1d(self.hi), axis, -1)
        lo = np.moveaxis(np.atleast_1d(self.lo), axis, -1)
        if hi.shape[-1] == 0:
            z = np.zeros(hi.shape[:-1])
            return DD(z, z.copy())
        hi = _pad_pow2(hi)
        lo = _pad_pow2(lo)
        while hi.shape[-1] > 1:
            m = hi.shape[-1] // 2
            a = DD(hi[..., :m], lo[..., :m]) + DD(hi[..., m:], lo[..., m:])
            hi, lo = a.hi, a.lo
        return DD(hi[..., 0], lo[..., 0])
