"""The p-adic series over arrays: E(z), the closed Weyl series, the Gram.

``models.padic_resolvent`` sums (p-1) sum_N c_N^2 / (lambda_N - z),
``models.padic_closed_form_m`` inverts (p-1) sum_N p^-N / (lambda_N - z)
and ``models.padic_gram`` sums (p-1) sum_N c_N c_(N+m), all over the
scales N of a table built once per (p, alpha) and truncated by the
decay of the terms.  Each is checked against the same bilateral series
summed in mpmath at 40 digits, and the refusals of the z-series (a tail
bound above 1e-15 of the sum) against their divergence at z = 0.
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


@functools.cache
def mpmath_gram(p: int, alpha: float, m: int) -> mpmath.mpf:
    """(p-1) sum_N c_N c_(N+m) at 40 digits, each direction summed until
    five terms in a row fall below 1e-35 of the sum."""
    with mpmath.workdps(40):
        pm, am = mpmath.mpf(p), mpmath.mpf(alpha)
        coeff = lambda n: pm ** (-mpmath.mpf(n) / 2) / (pm ** (am * (1 - n)) + 1)
        total = coeff(0) * coeff(m)
        for step in (1, -1):
            n, small = step, 0
            while small < 5:
                t = coeff(n) * coeff(n + m)
                total += t
                small = small + 1 if t < mpmath.mpf(10) ** -35 * total else 0
                n += step
        return (p - 1) * total


def relative_error(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("p, alpha", MODELS)
@pytest.mark.parametrize("z", POINTS, ids=repr)
def test_resolvent_matches_mpmath(p, alpha, z):
    want = mpmath_series(p, alpha, z, closed=False)
    assert relative_error(models.padic_resolvent(p, alpha, z), want) <= REL_TOL


@pytest.mark.parametrize("p, alpha", MODELS + [(2, 0.6)])
def test_gram_matches_mpmath(p, alpha):
    for m in range(-3, 4):
        got = models.padic_gram(p, alpha, m)
        assert relative_error(got, mpmath_gram(p, alpha, m)) <= 1e-15
        assert got == models.padic_gram(p, alpha, -m)


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
    lam, c2, p_minus_n, c = models._padic_scales(p, alpha)
    half = len(lam) // 2
    assert 0 < half <= models.SERIES_CAP
    for a in (lam, c2, p_minus_n, c):
        assert a.shape == (2 * half + 1,)
        assert not a.flags.writeable
        assert np.isfinite(a).all()
    assert lam.min() >= np.finfo(float).tiny
    assert p_minus_n.min() >= np.finfo(float).tiny


# ---------------------------------------------------------------------------
# The grid series on the real axis: real arithmetic, the complex quotient's bits
# ---------------------------------------------------------------------------

def _scalar_or_refusal(p, alpha, z):
    """The oracle: the scalar series, which sums the complex quotients
    w_N / (lambda_N - z), or the type of its refusal."""
    try:
        return models.padic_resolvent(p, alpha, z)
    except (ConvergenceError, PoleError) as err:
        return type(err)


def _grid_or_refusal(p, alpha, z):
    try:
        return models.padic_resolvent_grid(p, alpha, np.array([z]))[0]
    except (ConvergenceError, PoleError) as err:
        return type(err)


def _bits(value):
    return np.array([value], dtype=complex).tobytes()


@pytest.mark.parametrize("p, alpha", MODELS)
def test_real_axis_terms_are_the_complex_quotient_bit_for_bit(p, alpha):
    lam, c2, _, _ = models._padic_scales(p, alpha)
    for x in np.concatenate([-np.logspace(-12, 6, 200), np.logspace(-6, 4, 200)]):
        if x in lam:
            continue
        real = (c2 * (1.0 / (lam - x))).astype(complex)
        quotient = c2 / (lam - complex(x))
        assert np.array_equal(real, quotient), x
        # the quotient's zero imaginary parts are -0.0 exactly where lambda_N < x
        assert np.array_equal(np.signbit(quotient.imag), lam < x), x
        # a +0.0 term (lambda_N > x) keeps each sum's zero imaginary part +0.0
        assert _bits(real.sum()) == _bits(quotient.sum()), x


@pytest.mark.parametrize("p, alpha", MODELS)
def test_real_axis_grid_is_the_complex_series_bit_for_bit(p, alpha):
    lam = models._padic_scales(p, alpha)[0]
    negative = -np.logspace(-14, 8, 1000)
    positive = np.logspace(-6, 4, 1500)
    positive = positive[np.abs(positive[:, None] / lam - 1.0).min(axis=1) > 1e-6]
    z = np.concatenate([negative, positive]).astype(complex)
    want = [_scalar_or_refusal(p, alpha, zk) for zk in z.tolist()]
    for zk, w in zip(z.tolist(), want):
        got = _grid_or_refusal(p, alpha, zk)
        if isinstance(w, type):
            assert got is w, zk
        else:
            assert _bits(got) == _bits(w), zk  # the sign of a zero imaginary part too
    ok = np.array([not isinstance(w, type) for w in want])
    assert ok[:len(negative)].all() and ok.sum() > 0.99 * len(z)
    assert np.array_equal(models.padic_resolvent_grid(p, alpha, z[ok]),
                          np.array([w for w in want if not isinstance(w, type)]))


@pytest.mark.parametrize("p, alpha", MODELS)
def test_real_axis_grid_refuses_where_the_scalar_series_does(p, alpha):
    lam = models._padic_scales(p, alpha)[0]
    pole = complex(lam[len(lam) // 2 + 2])
    assert _scalar_or_refusal(p, alpha, pole) is PoleError
    assert _grid_or_refusal(p, alpha, pole) is PoleError
    with pytest.raises(PoleError, match=repr(pole.real)):
        models.padic_resolvent_grid(p, alpha, np.array([-1.0, pole, 2.5]))
    for zero in (0j, complex(0.0, -0.0), complex(-0.0, 0.0)):
        want = _scalar_or_refusal(p, alpha, zero)
        got = _grid_or_refusal(p, alpha, zero)
        assert got is want if isinstance(want, type) else _bits(got) == _bits(want)


@pytest.mark.parametrize("p, alpha", MODELS)
def test_a_block_mixing_real_and_nonreal_z_takes_the_complex_quotient(p, alpha):
    # equal moduli, so one scale n_z and one block; the real z come first
    z = 1.5 * np.exp(1j * np.array([np.pi, 0.0, 2.5, -2.5, 0.4]))
    z[:2] = z[:2].real
    got = models.padic_resolvent_grid(p, alpha, z)
    want = np.array([models.padic_resolvent(p, alpha, zk) for zk in z.tolist()])
    assert got.tobytes() == want.tobytes()
    assert (got.imag[2:] != 0.0).all()
