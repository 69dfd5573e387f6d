"""Reference values for the benchmark, computed apart from singext.

Nothing here imports the package under test.  The closed forms follow
from the models' defining integrals (see ``selftest.py``, which checks
them against mpmath quadrature); the p-adic Weyl series is summed in
mpmath at high precision.  Principal square roots throughout, so
sqrt(-z) has positive real part off the spectrum [0, inf).
"""

from __future__ import annotations

import cmath
import functools
import math

import mpmath
import numpy as np

# Squared defect norm per unit channel Gram at alpha = 3/2:
# int_0^inf y^2 / (1 + y^2)^2 dy = pi / 4.
SCALING_H_NORM_3_2 = math.pi / 4.0


def point_m(d: int, z: complex) -> complex:
    """Weyl function of the single delta interaction, d = 1 or d = 3."""
    u = cmath.sqrt(-complex(z))
    if d == 1:
        return -2.0 * u
    if d == 3:
        return 4.0 * math.pi / u
    raise ValueError(f"no closed form for d = {d}")


def scaling_m(m_gram: np.ndarray, z: complex) -> np.ndarray:
    """Weyl matrix of scaling-invariant channels at alpha = 3/2.

    M(z) = overlap^-1 / (2 sqrt(-z)) with overlap = (pi/4) m_gram; for
    orthonormal channels overlap = I and M(z) = I / (2 sqrt(-z)).
    """
    overlap = SCALING_H_NORM_3_2 * np.asarray(m_gram, dtype=complex)
    return np.linalg.inv(overlap) / (2.0 * cmath.sqrt(-complex(z)))


def _bilateral(term, eps) -> mpmath.mpc:
    """Sum term(N) over all integers; each tail stops after three
    consecutive terms below eps relative (the tails are geometric)."""
    total = term(0)
    for step in (1, -1):
        n, small = step, 0
        while small < 3:
            value = term(n)
            total += value
            small = small + 1 if abs(value) < eps * abs(total) else 0
            n += step
    return total


def padic_m_mp(p: int, alpha: float, z, dps: int = 40) -> mpmath.mpc:
    """p-adic Weyl function for alpha > 1 as an mpmath number:
    M(z) = -1 / ((p-1) sum_N p^-N / (p^(alpha(1-N)) - z))."""
    if alpha <= 1.0:
        raise ValueError("the Weyl series converges only for alpha > 1")
    with mpmath.workdps(dps):
        pm, am, zm = mpmath.mpf(p), mpmath.mpf(alpha), mpmath.mpc(z)
        total = _bilateral(lambda n: pm ** (-n) / (pm ** (am * (1 - n)) - zm),
                           mpmath.mpf(10) ** (-dps))
        return -1 / ((p - 1) * total)


@functools.cache
def padic_m(p: int, alpha: float, z: complex) -> complex:
    return complex(padic_m_mp(p, alpha, z))


@functools.cache
def padic_gram(p: int, alpha: float, m: int, dps: int = 40) -> float:
    """(h, U_{p^m} h) = (p-1) sum_N c_N c_{N+m}, c_N = p^(-N/2) / (p^(alpha(1-N)) + 1)."""
    with mpmath.workdps(dps):
        pm, am = mpmath.mpf(p), mpmath.mpf(alpha)
        coeff = lambda n: pm ** (-mpmath.mpf(n) / 2) / (pm ** (am * (1 - n)) + 1)
        total = _bilateral(lambda n: coeff(n) * coeff(n + m),
                           mpmath.mpf(10) ** (-dps))
        return float(mpmath.re((p - 1) * total))


@functools.cache
def padic_root(p: int, alpha: float, b: float, guess: float) -> float:
    """The x < 0 with M(x) = b, by Newton iteration on the mpmath series."""
    with mpmath.workdps(30):
        f = lambda x: mpmath.re(padic_m_mp(p, alpha, x, dps=30)) - b
        return float(mpmath.findroot(f, mpmath.mpf(guess)))
