"""The Poisson model of a finished moment table, a test oracle.

Poisson generating functions of the finite moment sequences, the
Poissonized variances and covariance, and the two covariance toll
functions; the tests check them against the model's functional equations
and against closed-form sums over trie words.
"""

import math

import numpy as np


class GuardExceeded(Exception):
    """A Poisson series evaluated beyond the radius its length certifies."""


class PoissonSeries:
    """A Poisson generating function e^-z sum m_n z^n / n! over finite m_n."""

    def __init__(self, moments):
        self.coef = np.asarray(moments, dtype=np.float64)
        # largest z with z + 12 sqrt(z) + 50 <= N: the Poisson(z) mass beyond
        # 12 sigma + 50 makes the dropped tail < 1e-12 for any polynomially
        # bounded moment sequence.
        nn = len(self.coef) - 1
        self.guard_z = 0.0 if nn <= 50 else (math.sqrt(nn - 14.0) - 6.0) ** 2

    def eval(self, z, derivative: int = 0):
        """Evaluate the series (or its first derivative) at real z.

        The derivative is taken termwise: d/dz e^-z sum m_n z^n/n! equals
        e^-z sum (m_{n+1} - m_n) z^n / n!.
        """
        if derivative not in (0, 1):
            raise ValueError("derivative must be 0 or 1")
        if abs(z) > self.guard_z:
            raise GuardExceeded(
                f"|z|={abs(z):g} beyond series guard {self.guard_z:g}")
        # the guard certifies the tail beyond z + 12 sqrt(z) + 50 terms is
        # negligible; do not iterate further into a long table
        limit = int(math.ceil(abs(z) + 12.0 * math.sqrt(abs(z)) + 50.0)) + 2
        c = self.coef[:limit + 1]
        if derivative:
            c = np.diff(c)
        x = float(z)
        term = 1.0
        parts = []
        for i, cn in enumerate(c):
            parts.append(cn * term)
            term *= x / (i + 1)
        return math.exp(-x) * math.fsum(parts)


class PoissonModel:
    """The five Poisson generating functions of one full moment table.

    f10/f01 are the transforms of ES/EK, f20/f02 of the raw second moments
    and f11 of the raw mixed moment, each Cov + mean * mean.
    """

    def __init__(self, table):
        if table.at is not None:
            raise ValueError("a Poisson model needs a full table, not rows at")
        self.p, self.q = table.p, 1.0 - table.p
        es, ek = table.ES, table.EK
        self.f10, self.f01 = PoissonSeries(es), PoissonSeries(ek)
        self.f20 = PoissonSeries(table.VarS + es * es)
        self.f02 = PoissonSeries(table.VarK + ek * ek)
        self.f11 = PoissonSeries(table.CovSK + es * ek)

    def var_S(self, z: float) -> float:
        """Poissonized variance of the size: f20 - f10^2 - z f10'^2."""
        return (self.f20.eval(z) - self.f10.eval(z) ** 2
                - z * self.f10.eval(z, 1) ** 2)

    def var_K(self, z: float) -> float:
        """Poissonized variance of the KPL: f02 - f01^2 - z f01'^2."""
        return (self.f02.eval(z) - self.f01.eval(z) ** 2
                - z * self.f01.eval(z, 1) ** 2)

    def cov(self, z: float) -> float:
        """Poissonized covariance: f11 - f10 f01 - z f10' f01'."""
        return (self.f11.eval(z) - self.f10.eval(z) * self.f01.eval(z)
                - z * self.f10.eval(z, 1) * self.f01.eval(z, 1))

    def h1(self, z: float) -> float:
        """First covariance toll: pq z (f10'(pz)-f10'(qz))(f01'(pz)-f01'(qz))."""
        p, q = self.p, self.q
        return (p * q * z
                * (self.f10.eval(p * z, 1) - self.f10.eval(q * z, 1))
                * (self.f01.eval(p * z, 1) - self.f01.eval(q * z, 1)))

    def h2(self, z: float) -> float:
        """Second covariance toll (exponentially small for large z)."""
        p, q = self.p, self.q
        ez = math.exp(-z)
        a = z * ez * (self.f10.eval(p * z) + self.f10.eval(q * z)
                      + p * (1.0 - z) * self.f10.eval(p * z, 1)
                      + q * (1.0 - z) * self.f10.eval(q * z, 1))
        b = ez * ((1.0 + z) * self.f01.eval(p * z)
                  + (1.0 + z) * self.f01.eval(q * z)
                  - p * z * z * self.f01.eval(p * z, 1)
                  - q * z * z * self.f01.eval(q * z, 1))
        c = z * ez * (1.0 - (1.0 + z * z) * ez)
        return a + b + c
