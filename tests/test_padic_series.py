"""The p-adic resolvent datum E(z) and the closed Weyl series over arrays.

``models.padic_resolvent`` sums (p-1) sum_N c_N^2 / (lambda_N - z) and
``models.padic_closed_form_m`` inverts (p-1) sum_N p^-N / (lambda_N - z),
both over the scales N of a window built once per (p, alpha) and
truncated per z by the decay of the terms.  Both are checked against
the same bilateral series summed in mpmath at 40 digits, and their
refusals (a tail bound above 1e-15 of the sum) against the divergence
of the series at z = 0.
"""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singext as sx
from singext import models
from singext.errors import ConvergenceError, PoleError

MODELS = [(2, 1.5), (3, 0.75), (2, 1.0), (5, 2.5)]
# next to 0, next to the eigenvalue lambda_1 = 1 of every model, |z| = 1e3
POINTS = [complex(-1e-12, 0.0), complex(1.0, 1e-9),
          complex(-1e3, 0.0), complex(0.0, 1e3), 1e3 * complex(math.cos(2.5), math.sin(2.5))]
REL_TOL = 1e-14


@functools.cache
def mpmath_series(p: int, alpha: float, z: complex, closed: bool) -> complex:
    """(p-1) sum_N w_N / (lambda_N - z) at 40 digits, w_N = p^-N or c_N^2,
    each direction summed until five terms in a row fall below 1e-35 of
    the sum (``None`` when that takes more than 3000 terms)."""
    with mpmath.workdps(40):
        pm, am, zm = mpmath.mpf(p), mpmath.mpf(alpha), mpmath.mpc(z)

        def term(n):
            lam = pm ** (am * (1 - n))
            w = pm ** -n if closed else pm ** (-n) / (lam + 1) ** 2
            return w / (lam - zm)

        total = term(0)
        for step in (1, -1):
            n, small = step, 0
            while small < 5:
                if abs(n) > 3000:
                    return None
                t = term(n)
                total += t
                small = small + 1 if abs(t) < mpmath.mpf(10) ** -35 * abs(total) else 0
                n += step
        return complex((p - 1) * total)


def relative_error(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("p, alpha", MODELS)
@pytest.mark.parametrize("z", POINTS, ids=repr)
def test_resolvent_matches_mpmath(p, alpha, z):
    want = mpmath_series(p, alpha, z, closed=False)
    assert relative_error(models.padic_resolvent(p, alpha, z), want) <= REL_TOL


@pytest.mark.parametrize("p, alpha", [m for m in MODELS if m[1] > 1.0])
@pytest.mark.parametrize("z", POINTS, ids=repr)
def test_closed_weyl_series_matches_mpmath(p, alpha, z):
    want = -1.0 / mpmath_series(p, alpha, z, closed=True)
    got = models.padic_closed_form_m(p, alpha)(z)
    assert got.shape == (1, 1)
    assert relative_error(got[0, 0], want) <= REL_TOL


# Off the positive axis, where the real parts of the terms change sign and
# the sum can cancel: |arg z| >= 0.3, |z| from 1e-6 to 1e4.
off_axis = st.builds(lambda r, theta: r * complex(math.cos(theta), math.sin(theta)),
                     st.floats(1e-6, 1e4), st.floats(0.3, math.pi) | st.floats(-math.pi, -0.3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=st.sampled_from(MODELS), z=off_axis)
def test_series_match_mpmath_off_the_axis(model, z):
    p, alpha = model
    want = mpmath_series(p, alpha, z, closed=False)
    assert relative_error(models.padic_resolvent(p, alpha, z), want) <= REL_TOL
    if alpha > 1.0:
        want = -1.0 / mpmath_series(p, alpha, z, closed=True)
        got = models.padic_closed_form_m(p, alpha)(z)[0, 0]
        assert relative_error(got, want) <= REL_TOL


@pytest.mark.parametrize("p, alpha", [(2, 1.5), (2, 1.0), (5, 2.5), (2, 1.01)])
def test_resolvent_refused_at_zero_where_it_diverges(p, alpha):
    # sum_N p^(N (alpha - 1)) diverges as N -> +inf for alpha >= 1
    with pytest.raises(ConvergenceError):
        models.padic_resolvent(p, alpha, 0.0)


@pytest.mark.parametrize("p, alpha", [(2, 1.5), (5, 2.5)])
def test_closed_weyl_series_refused_at_zero(p, alpha):
    with pytest.raises(ConvergenceError):
        models.padic_closed_form_m(p, alpha)(0.0)


@pytest.mark.parametrize("p, alpha", [(3, 0.75), (2, 0.75), (7, 0.55)])
def test_resolvent_finite_at_zero_below_one(p, alpha):
    want = mpmath_series(p, alpha, 0j, closed=False)
    got = models.padic_resolvent(p, alpha, 0.0)
    assert got.imag == 0.0
    assert relative_error(got, want) <= REL_TOL


def test_closed_weyl_series_refused_where_the_window_is_too_short():
    # at alpha = 1.01 the terms shrink by 2^-0.01 a scale as N -> -inf, so
    # 1e-15 lies far beyond the last scale of the window
    with pytest.raises(ConvergenceError):
        models.padic_closed_form_m(2, 1.01)(-1.0)


@pytest.mark.parametrize("p, alpha", MODELS)
def test_resolvent_at_an_eigenvalue_is_a_pole(p, alpha):
    # z = lambda_N exactly, for N = 1 (lambda = 1) and N = -1
    for z in (1.0, float(p) ** (2.0 * alpha)):
        with pytest.raises(PoleError):
            models.padic_resolvent(p, alpha, z)


@pytest.mark.parametrize("p, alpha", MODELS + [(7, 0.55), (11, 3.0)])
def test_window_stays_in_the_normal_range(p, alpha):
    lam, c2, p_minus_n = models._padic_scales(p, alpha)
    half = len(lam) // 2
    assert 0 < half <= models.SERIES_CAP
    for a in (lam, c2, p_minus_n):
        assert a.shape == (2 * half + 1,)
        assert not a.flags.writeable
        assert np.isfinite(a).all()
    assert lam.min() >= np.finfo(float).tiny
    assert p_minus_n.min() >= np.finfo(float).tiny
