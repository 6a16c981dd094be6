"""Complex gamma and digamma.

Lanczos approximation (g = 607/128, 15 terms) with the reflection formula
for Re z < 1/2; digamma by upward recurrence into |z| >= 16 followed by the
Bernoulli asymptotic series.  Both deliver ~14 significant digits on the
strip |Re z|, |Im z| <= 40.  The coefficient series evaluate them at the
harmonics chi_k (purely imaginary) shifted by small integers, which reach
|Im z| of several hundred for ratios such as 7/6; there gamma takes the
reflection in log space once sin(pi z) overflows (|Im z| past about 226)
and stays within 1e-12 relative of mpmath up to |Im z| = 400.  Digamma is
within 1e-13 of mpmath off the strip too, for Re z from -60.5 to 400 and
|Im z| from 250 to 1e4.
"""

from __future__ import annotations

import cmath
import math

from .errors import PoleError

EULER_GAMMA = 0.5772156649015329

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

# B_{2n}/(2n) for the digamma asymptotic expansion
_PSI_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def cgamma(z) -> complex:
    """Gamma(z) for complex z; raises PoleError at nonpositive integers."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z.real:g}")
    if z.real < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        try:
            sin_pz = cmath.sin(math.pi * z)
        except OverflowError:
            return _reflect_log(z)
        return math.pi / (sin_pz * cgamma(1.0 - z))
    zm, t, s = _lanczos(z)
    return math.sqrt(2.0 * math.pi) * t ** (zm + 0.5) * cmath.exp(-t) * s


def _lanczos(z: complex):
    """(z - 1, z - 1/2 + g, Lanczos sum) for Re z >= 1/2."""
    zm = z - 1.0
    s = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[i] / (zm + i)
    return zm, zm + _LANCZOS_G + 0.5, s


def _reflect_log(z: complex) -> complex:
    """The reflection formula in log space, for Re z < 1/2 and |Im z| past
    about 226, where sin(pi z) overflows although Gamma(z) is below 1e-150.

    With e = +1 for Im z > 0 and -1 below, sin(pi z) equals
    (e i / 2) exp(-e i pi z) (1 - exp(2 e i pi z)), and the last factor is
    1 to within exp(-1400), so log sin(pi z) = e i (pi/2 - pi z) - log 2.
    """
    e = 1.0 if z.imag > 0.0 else -1.0
    log_sin = e * 1j * (0.5 * math.pi - math.pi * z) - math.log(2.0)
    zm, t, s = _lanczos(1.0 - z)
    log_g = (0.5 * math.log(2.0 * math.pi) + (zm + 0.5) * cmath.log(t) - t
             + cmath.log(s))
    return cmath.exp(math.log(math.pi) - log_sin - log_g)


def cdigamma(z) -> complex:
    """psi(z) for complex z; raises PoleError at nonpositive integers."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"digamma pole at z = {z.real:g}")
    if z.real < 0.5:
        return cdigamma(1.0 - z) - math.pi / cmath.tan(math.pi * z)
    acc = 0.0 + 0.0j
    while abs(z) < 16.0:
        acc -= 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    s = 0.0 + 0.0j
    for c in reversed(_PSI_TAIL):
        s = (s + c) * w
    return acc + cmath.log(z) - 0.5 / z - s
