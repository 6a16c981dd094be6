"""Asymptotic objects: entropy, lambda, Fourier coefficients, fluctuations.

Moments of trie shape parameters grow like n times a fluctuation sum

    F[g](n) = sum_k g_k n^(-chi_k),

which is periodic in log n when log p/log q = r/l is rational (with
harmonics chi_k = 2 r k pi i / log(1/p); we fix the branch with positive
imaginary part for k > 0, the conjugate relabeling k <-> -k of the same
sum) and collapses to the constant g_0 in the irrational case.

Implemented coefficient families:

* ``g2_general`` -- covariance of (size, KPL), any p, from the gamma/digamma
  series with the j-convolution in the rational case.  At k = 0 the leading
  term Gamma(chi)(1 - (chi+2)2^(-chi-1)) is a removable singularity whose
  limit is (log 2 - 1/2)/h by first-order expansion; the value is pinned by
  cross-evaluation against the independent unbiased-case series (agreement
  to 50 digits at high precision) and by the average correlation constant
  0.9272416035 both formulas reproduce.
* ``g1_sym``, ``g2_sym``, ``g3_sym`` -- unbiased case (p = 1/2) series for
  size variance, covariance and KPL variance.  k = 0 leading-term limits
  (first-order expansions of Gamma(chi) times the vanishing factor):
  1/(4 log 2), 1 - 1/(4 log 2), 1 + 1/(4 log 2).

Also here: the asymptotic correlation F(n) of size and KPL at p = 1/2, the
2x2 covariance matrices of the bivariate CLT and their closed-form square
roots / inverse square roots.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import NotPositiveDefinite, RatioSpecMismatch, TruncationNotConverged
from .exact import _canonical
from .gammafn import EULER_GAMMA, cdigamma, cgamma

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioSpec:
    """log p / log q = r/l with r, l coprime positive integers."""

    r: int
    l: int

    def __post_init__(self):
        if self.r <= 0 or self.l <= 0:
            raise ValueError("ratio parts must be positive")
        if math.gcd(self.r, self.l) != 1:
            raise ValueError("ratio must be in lowest terms")


IRRATIONAL = "irrational"
_MAX_DEN = 64


def detect_ratio(p: float) -> RatioSpec | None:
    """Continued-fraction heuristic for log p/log q; None means irrational.

    A convergent r/l with numerator and denominator <= _MAX_DEN is proposed
    only when it matches to |r log q - l log p| < 1e-12 |log p|.  The
    dichotomy is numerically undecidable; an explicit ratio_spec always
    wins.
    """
    lp, lq = math.log(p), math.log(1.0 - p)
    frac = Fraction(lp / lq).limit_denominator(_MAX_DEN)
    r, l = frac.numerator, frac.denominator
    # limit_denominator bounds l only; near p = 0 or 1 the ratio is huge and
    # a huge r would make chi_k, and with it the gamma factors, overflow
    if not 0 < r <= _MAX_DEN:
        return None
    if abs(r * lq - l * lp) < 1e-12 * abs(lp):
        return RatioSpec(r, l)
    return None


@dataclass(frozen=True)
class ModelParams:
    """Bernoulli source parameters and derived constants.

    p, q and ratio are as given (log p / log q = r/l); h, lam, lam_alt,
    chi_k and the g2 series are formed from the canonical pair (p_c, q_c)
    that p and 1 - p share, so both give bit-identical coefficients.
    """

    p: float
    q: float
    h: float            # entropy in nats
    lam: float          # leading constant of Var(KPL)/(n log n)
    lam_alt: float      # the same constant by its second algebraic form
    ratio: RatioSpec | None
    ratio_source: str   # "supplied" | "detected" | "forced-irrational"

    @property
    def rational(self) -> bool:
        return self.ratio is not None

    @property
    def symmetric(self) -> bool:
        """p = 1/2 with its harmonics: the case ``sym_coeffs`` serves."""
        return abs(self.p - 0.5) <= 1e-15 and self.rational

    def chi(self, k: int) -> complex:
        """Harmonic exponent chi_k; positive imaginary part for k > 0."""
        if k == 0:
            return 0j
        if self.ratio is None:
            raise ValueError("nonzero harmonics undefined for irrational ratio")
        p_c, _ = _canonical(self.p)
        # r of log p_c / log q_c: the given ratio, flipped when p_c is 1 - p
        r = self.ratio.l if self.p > 0.5 else self.ratio.r
        return 2j * math.pi * r * k / math.log(1.0 / p_c)


def params(p: float, ratio_spec: RatioSpec | str | None = None) -> ModelParams:
    """Build ModelParams, cross-checking both algebraic forms of lambda."""
    p_c, q_c = _canonical(p)
    lp, lq = math.log(p_c), math.log(q_c)
    h = -(p_c * lp + q_c * lq)
    lam = p_c * q_c * (lp - lq) ** 2 / h ** 3
    second = p_c * lp * lp + q_c * lq * lq
    lam_alt = (second - h * h) / h ** 3
    # lam_alt cancels h^2 against the nearly equal second log-moment as p
    # nears 1/2, so the forms can only agree to the scale of that moment
    if abs(lam - lam_alt) > 1e-13 * second / h ** 3:
        raise ArithmeticError(
            f"lambda forms disagree: {lam!r} vs {lam_alt!r}")
    swapped = p > 0.5           # p_c is 1 - p: flip ratios between the two
    if ratio_spec == IRRATIONAL:
        ratio, source = None, "forced-irrational"
    elif isinstance(ratio_spec, RatioSpec):
        lp_in, lq_in = (lq, lp) if swapped else (lp, lq)
        r, l = ratio_spec.r, ratio_spec.l
        if abs(r * lq_in - l * lp_in) >= 1e-12 * abs(lp_in):
            raise RatioSpecMismatch(f"log p/log q != {r}/{l} at p={p}")
        ratio, source = ratio_spec, "supplied"
    elif ratio_spec is None:
        ratio, source = detect_ratio(p_c), "detected"
        if ratio is not None and swapped:
            ratio = RatioSpec(ratio.l, ratio.r)
    else:
        raise ValueError("ratio_spec must be RatioSpec, 'irrational' or None")
    return ModelParams(p=p, q=1.0 - p, h=h, lam=lam, lam_alt=lam_alt,
                       ratio=ratio, ratio_source=source)


# ---------------------------------------------------------------------------
# coefficient series
# ---------------------------------------------------------------------------

# Every series stops by itself once two consecutive terms (or, for the
# j-convolution, a +-j pair) fall below _TOL; the caps only bound the work
# when it does not.  General-p tails decay like max(p, q)^ell, so the ell
# cap is reached from max(p, q) ~ 0.9996 on.
_TOL = 1e-18
_MAX_ELL = 100_000
_MAX_J = 40


def _series(term, ell_from: int) -> complex:
    """Sum term(ell) until two consecutive terms drop below _TOL."""
    total = 0j
    small = 0
    for ell in range(ell_from, _MAX_ELL + 1):
        t = term(ell)
        total += t
        if abs(t) < _TOL:
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise TruncationNotConverged(
        f"series tail above tol={_TOL:g} after {_MAX_ELL} terms")


def chi_sym(k: int) -> complex:
    """chi_k at p = 1/2: 2 k pi i / log 2."""
    return 2j * math.pi * k / LN2


def g1_sym(k: int) -> complex:
    """Size-variance Fourier coefficient, p = 1/2."""
    x = chi_sym(k)
    if k == 0:
        lead = 1.0 / (4.0 * LN2)
    else:
        lead = -cgamma(x - 1) * x * (x + 1) ** 2 / (4.0 * LN2)

    def term(ell):
        return ((-1) ** ell * cgamma(x + ell) * ell * (ell * (x + ell) - 1)
                / (math.factorial(ell + 1) * (2.0 ** ell - 1.0)))

    return lead + 2.0 / LN2 * _series(term, 1)


def g2_sym(k: int) -> complex:
    """Size/KPL-covariance Fourier coefficient, p = 1/2."""
    x = chi_sym(k)
    if k == 0:
        lead = 1.0 - 1.0 / (4.0 * LN2)
    else:
        lead = cgamma(x) * (1 - (x * x + x + 4) / 2 ** (x + 2)) / LN2

    def term(ell):
        return ((-1) ** ell * cgamma(x + ell)
                * (ell * (2 * ell + 1) * (x + ell) - (ell + 1) ** 2)
                / (math.factorial(ell + 1) * (2.0 ** ell - 1.0)))

    return lead + _series(term, 1) / LN2


def g3_sym(k: int) -> complex:
    """KPL-variance Fourier coefficient, p = 1/2."""
    x = chi_sym(k)
    if k == 0:
        lead = 1.0 + 1.0 / (4.0 * LN2)
    else:
        lead = cgamma(x) * (1 - (x * x - x + 4) / 2 ** (x + 2)) / LN2

    def term(ell):
        return ((-1) ** ell * cgamma(x + ell) * (ell * (x + ell - 1) - 1)
                / (math.factorial(ell) * (2.0 ** ell - 1.0)))

    return lead + 2.0 / LN2 * _series(term, 1)


def g2_general(model: ModelParams, k: int) -> complex:
    """Covariance Fourier coefficient g2_k for arbitrary p.

    Four pieces: the leading gamma factor (its k=0 removable limit is
    (log 2 - 1/2)/h), the j-convolution over nonzero harmonics (rational
    case only), the digamma term, and the ell >= 2 gamma series.
    """
    p, q = _canonical(model.p)
    h = model.h
    if not model.rational:
        if k != 0:
            raise ValueError("only k=0 is relevant in the irrational case")
    x = model.chi(k) if model.rational else 0j

    if k == 0:
        t1 = (LN2 - 0.5) / h
    else:
        t1 = cgamma(x) / h * (1 - (x + 2) / 2 ** (x + 1))

    t2 = 0j
    if model.rational:
        # Gamma decays like exp(-pi |Im chi|/2) along the imaginary axis, so
        # past j = |k| the convolution terms die super-exponentially; iterate
        # outward and stop at the first +-j pair past |k| below the tolerance.
        acc = 0j
        converged = False
        for j in range(1, abs(k) + _MAX_J + 1):
            pair = 0j
            for jj in (j, -j):
                cj = model.chi(jj)
                pair += cgamma(model.chi(k - jj) + 1) * (cj - 1) * cgamma(cj)
            acc += pair
            if abs(pair) < _TOL and j > abs(k):
                converged = True
                break
        if not converged:
            raise TruncationNotConverged(
                f"j-convolution tail above tol={_TOL:g} at j={abs(k) + _MAX_J}")
        t2 = -acc / h ** 2

    t3 = (-cgamma(x + 1) / h ** 2
          * (EULER_GAMMA + 1 + cdigamma(x + 1)
             - (p * math.log(p) ** 2 + q * math.log(q) ** 2) / (2 * h)))

    # Gamma(x+ell-1)/ell! carried multiplicatively from one ell to the next
    # (_series asks for ell = 2, 3, ... in order): Gamma(ell) and ell!
    # overflow separately past ell ~ 170 although their ratio stays tame
    # (skewed p needs ell in the thousands).
    bracket = cgamma(x + 1) / 2.0

    def term(ell):
        nonlocal bracket
        if ell > 2:
            bracket = bracket * (x + ell - 2) / ell
        return ((-1) ** ell * (p ** ell + q ** ell)
                / (1 - p ** ell - q ** ell) * bracket
                * (2 * ell * ell - 2 * ell + 1 + x * (2 * ell - 1)))

    t4 = _series(term, 2) / h
    return t1 + t2 + t3 + t4


# ---------------------------------------------------------------------------
# fluctuation sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierCoeffs:
    """Coefficients g_k of one fluctuation sum, stored for k = 0..k_max;
    g_-k is the conjugate of g_k, as the sum is real."""

    family: str
    p: float
    values: tuple          # complex g_0 .. g_k_max
    chi_unit: complex      # chi_k = k * chi_unit

    @property
    def k_max(self) -> int:
        return len(self.values) - 1

    def value(self, k: int) -> complex:
        if abs(k) > self.k_max:
            raise IndexError(f"|k|={abs(k)} beyond k_max={self.k_max}")
        return self.values[k] if k >= 0 else self.values[-k].conjugate()

    def __post_init__(self):
        if any(abs(v) >= abs(self.values[0]) for v in self.values[1:]):
            raise ValueError("coefficient magnitudes must decay in |k|")

    def doc(self) -> dict:
        """The coefficients as Python numbers, for the result document."""
        return {
            "family": self.family,
            "p": self.p,
            "k_max": self.k_max,
            "coefficients": [
                {"k": k, "re": self.value(k).real, "im": self.value(k).imag}
                for k in range(-self.k_max, self.k_max + 1)
            ],
        }


_SYM_FAMILIES = {"g1": g1_sym, "g2": g2_sym, "g3": g3_sym}


@lru_cache(maxsize=None)
def sym_coeffs(family: str, k_max: int = 5) -> FourierCoeffs:
    """Coefficient table of one symmetric-case family (p = 1/2)."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    fn = _SYM_FAMILIES[family]
    return FourierCoeffs(family=family, p=0.5,
                         values=tuple(fn(k) for k in range(k_max + 1)),
                         chi_unit=chi_sym(1))


def cov_coeffs(model: ModelParams, k_max: int = 5) -> FourierCoeffs:
    """Coefficient table for the covariance family g2 at arbitrary p."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if not model.rational:
        return FourierCoeffs(family="g2", p=model.p,
                             values=(g2_general(model, 0),), chi_unit=0j)
    return FourierCoeffs(family="g2", p=model.p,
                         values=tuple(g2_general(model, k) for k in range(k_max + 1)),
                         chi_unit=model.chi(1))


def fluct_eval(coeffs: FourierCoeffs, n) -> float:
    """F[g](n) = g_0 + 2 Re sum_k g_k exp(-chi_k log n), n > 1."""
    n = float(n)
    if n <= 1.0:
        raise ValueError("n must be > 1")
    logn = math.log(n)
    total = coeffs.value(0).real
    for k in range(1, coeffs.k_max + 1):
        total += 2.0 * (coeffs.value(k) * cmath.exp(-k * coeffs.chi_unit * logn)).real
    return total


def F_of_n(n, k_max: int = 5) -> float:
    """Asymptotic correlation of size and KPL at p = 1/2 (period 1 in log2 n)."""
    c1, c2, c3 = (sym_coeffs(f, k_max) for f in ("g1", "g2", "g3"))
    return fluct_eval(c2, n) / math.sqrt(fluct_eval(c1, n) * fluct_eval(c3, n))


def F_profile(points: int = 512, k_max: int = 5):
    """Sample F over one period: returns (log2n array, F array).

    The grid spans [base, base+1) in log2 n; a uniform-grid average over one
    period is the spectrally accurate quadrature for the period mean.
    """
    base = 20.0
    x = base + np.arange(points) / points
    f = np.array([F_of_n(2.0 ** xi, k_max) for xi in x])
    return x, f


# ---------------------------------------------------------------------------
# 2x2 symmetric matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymMatrix2:
    """Symmetric 2x2 matrix [[a, b], [b, c]]."""

    a: float
    b: float
    c: float

    def det(self) -> float:
        return self.a * self.c - self.b * self.b

    def is_positive_definite(self) -> bool:
        return self.a > 0.0 and self.det() > 0.0

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.b, self.c]])

    def apply(self, xy: np.ndarray) -> np.ndarray:
        """Multiply vectors of shape (..., 2) by the matrix."""
        xy = np.asarray(xy, dtype=np.float64)
        out = np.empty_like(xy)
        out[..., 0] = self.a * xy[..., 0] + self.b * xy[..., 1]
        out[..., 1] = self.b * xy[..., 0] + self.c * xy[..., 1]
        return out


def _require_pd(m: SymMatrix2):
    if not m.is_positive_definite():
        raise NotPositiveDefinite(
            f"matrix [[{m.a:g},{m.b:g}],[{m.b:g},{m.c:g}]] is not positive-definite")


def sqrt2(m: SymMatrix2) -> SymMatrix2:
    """The unique positive-definite square root of a positive-definite M."""
    _require_pd(m)
    s = math.sqrt(m.det())
    t = math.sqrt(m.a + m.c + 2.0 * s)
    return SymMatrix2(a=(m.a + s) / t, b=m.b / t, c=(m.c + s) / t)


def invsqrt2(m: SymMatrix2) -> SymMatrix2:
    """Inverse of sqrt2(M), in closed form."""
    _require_pd(m)
    s = math.sqrt(m.det())
    d = math.sqrt(m.det() * (m.a + m.c + 2.0 * s))
    return SymMatrix2(a=(m.c + s) / d, b=-m.b / d, c=(m.a + s) / d)


def sigma_matrix(model: ModelParams, n: float) -> SymMatrix2:
    """Asymptotic covariance matrix of (size, KPL) scaled by n:
    n [[F[g1], F[g2]], [F[g2], F[g3]]], with harmonics |k| <= 5, for the
    symmetric model only: other models raise ValueError, as general-p g1/g3
    closed forms are out of scope.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not model.symmetric:
        raise ValueError(
            "asymptotic covariance matrix needs g1/g3 coefficients, "
            "implemented only for p = 1/2")
    c1, c2, c3 = (sym_coeffs(f) for f in ("g1", "g2", "g3"))
    return SymMatrix2(a=n * fluct_eval(c1, n), b=n * fluct_eval(c2, n),
                      c=n * fluct_eval(c3, n))
