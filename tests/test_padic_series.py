"""The p-adic series over arrays: Mhat(z), E(z), the closed Weyl series, the Gram.

``models.padic_m_hat`` sums (z+1) (p-1) sum_N p^-N / ((lambda_N+1) (lambda_N - z)),
``models.padic_resolvent`` sums (p-1) sum_N c_N^2 / (lambda_N - z),
``models.padic_closed_form_m`` inverts (p-1) sum_N p^-N / (lambda_N - z)
and ``models.padic_gram`` sums (p-1) sum_N c_N c_(N+m), all over the
scales N of a table built once per (p, alpha) and truncated by the
decay of the terms.  Each is checked against the same bilateral series
summed at 40 digits, and the refusals of the z-series (a tail bound
above 1e-15 of the sum) against their divergence at z = 0.
"""

import decimal
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
def mpmath_series(p: int, alpha: float, z: complex, weight: str) -> complex:
    """(p-1) sum_N w_N / (lambda_N - z) at 40 digits, w_N = c_N^2 ("e"),
    p^-N ("closed") or p^-N / (lambda_N + 1) ("m_hat", the sum then times
    z + 1), each direction summed until five terms in a row fall below
    1e-35 of the sum (``None`` when that takes more than 3000 terms),
    rounded to a complex."""
    total = mpmath_series_40(p, alpha, z, weight)
    return None if total is None else complex(total)


def mpmath_series_40(p: int, alpha: float, z: complex, weight: str):
    """``mpmath_series`` as an mpmath number of 40 digits, not rounded."""
    with mpmath.workdps(40):
        pm, am, zm = mpmath.mpf(p), mpmath.mpf(alpha), mpmath.mpc(z)
        power = {"e": 2, "closed": 0, "m_hat": 1}[weight]

        def term(n):
            lam = pm ** (am * (1 - n))
            return pm ** -n / ((lam + 1) ** power * (lam - zm))

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
        return (p - 1) * (zm + 1 if weight == "m_hat" else 1) * total


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


@functools.cache
def _scale(p: int, alpha: float, n: int) -> tuple[decimal.Decimal, decimal.Decimal]:
    """lambda_N and p^-N / (lambda_N + 1) at scale n, from mpmath at 50 digits."""
    with mpmath.workdps(50):
        pm = mpmath.mpf(p)
        lam = pm ** (mpmath.mpf(alpha) * (1 - n))
        return (decimal.Decimal(mpmath.nstr(lam, 50)),
                decimal.Decimal(mpmath.nstr(pm ** -n / (lam + 1), 50)))


def direct_m_hat(p: int, alpha: float, x: float) -> float:
    """Mhat(x) = (x+1) (p-1) sum_N p^-N / ((lambda_N+1) (lambda_N - x)) at a
    real x, summed directly at 40 digits: each direction until five terms
    in a row fall below 1e-35 of the sum, which must take at most 3000
    terms.  The sum runs in ``decimal``,
    whose C arithmetic keeps a grid of a thousand points cheap where
    mpmath's would dominate the test's run time."""
    big_x = decimal.Decimal(x)

    def term(n):
        lam, w = _scale(p, alpha, n)
        return w / (lam - big_x)

    with decimal.localcontext(decimal.Context(prec=40)):
        total = term(0)
        for step in (1, -1):
            n, small = step, 0
            while small < 5:
                assert abs(n) <= 3000, (p, alpha, x)
                t = term(n)
                total += t
                small = small + 1 if abs(t) < decimal.Decimal("1e-35") * abs(total) else 0
                n += step
        return float((p - 1) * (big_x + 1) * total)


def relative_error(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("p, alpha", MODELS)
@pytest.mark.parametrize("z", POINTS, ids=repr)
def test_resolvent_matches_mpmath(p, alpha, z):
    want = mpmath_series(p, alpha, z, "e")
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
    want = -1.0 / mpmath_series(p, alpha, z, "closed")
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
    want = mpmath_series(p, alpha, z, "e")
    assert relative_error(models.padic_resolvent(p, alpha, z), want) <= REL_TOL
    want = mpmath_series(p, alpha, z, "m_hat")
    assert relative_error(models.padic_m_hat(p, alpha, z), want) <= REL_TOL
    if alpha > 1.0:
        want = -1.0 / mpmath_series(p, alpha, z, "closed")
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
    want = mpmath_series(p, alpha, 0j, "e")
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
    lam, c2, p_minus_n, c, m_hat_w = models._padic_scales(p, alpha)
    half = len(lam) // 2
    assert 0 < half <= models.SERIES_CAP
    for a in (lam, c2, p_minus_n, c, m_hat_w):
        assert a.shape == (2 * half + 1,)
        assert not a.flags.writeable
        assert np.isfinite(a).all()
    for a in (lam, p_minus_n, m_hat_w):
        assert a.min() >= np.finfo(float).tiny


# ---------------------------------------------------------------------------
# The window of the z-series, built once per (p, alpha, series), against
# the rule of ``_padic_series``'s docstring
# ---------------------------------------------------------------------------

SERIES = {"e": models.E_SERIES, "closed": models.CLOSED_SERIES, "m_hat": models.M_HAT_SERIES}


def _docstring_sum(p, alpha, z, series):
    """(p - 1) sum_N w_N / (lambda_N - z) over the window of the docstring,
    on the float rows of the scale table: n_z the first scale with
    lambda_N <= |z|/2 (the last scale where there is none), and the
    window the series' reach past scales 0 and n_z, span = log(reach) /
    log p scales above and span / a below, two more scales each way."""
    row, k, reach = series
    table = models._padic_scales(p, alpha)
    lam, w = table[0], table[row]
    half, a, size = len(lam) // 2, k * alpha - 1.0, abs(z)
    n_z = next((n for n in range(-half, half + 1) if lam[n + half] <= size / 2.0), half)
    span = math.log(reach) / math.log(p)
    lo = max(-half, min(n_z, 0) - math.ceil(span / a) - 2)
    hi = min(half, max(n_z, 0) + math.ceil(span) + 2)
    window = slice(lo + half, hi + half + 1)
    return (p - 1) * complex((w[window] / (lam[window] - z)).sum())


def _seeded_z(seed):
    """|z| log-uniform in [1e-6, 1e8]: nonreal, on the negative and on the
    positive axis."""
    rng = np.random.default_rng([seed, 29])
    size = 10.0 ** rng.uniform(-6.0, 8.0, 60)
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, 60))
    return [complex(x) for x in np.concatenate([size * phase, -size, size])]


# The closed series converges only for alpha > 1 (``padic_closed_form_m``
# refuses the rest), so (3, 3/4) takes the other two.
@pytest.mark.parametrize("p, alpha, name", [
    (p, alpha, name) for p, alpha in [(2, 1.5), (3, 0.75), (5, 2.5)]
    for name in sorted(SERIES) if alpha > 1.0 or name != "closed"])
def test_cached_window_sums_the_docstring_window_bit_for_bit(p, alpha, name):
    series, summed = SERIES[name], 0
    for z in _seeded_z(p):
        try:
            got = models._padic_series(p, alpha, z, series)
        except ConvergenceError:
            continue
        summed += 1
        assert _bits(got) == _bits(_docstring_sum(p, alpha, z, series)), z
    assert summed >= 170, summed
    window = models._padic_window(p, alpha, series)
    assert not any(x.flags.writeable for x in window if isinstance(x, np.ndarray))
    assert models._padic_window.cache_info().maxsize == 32


# ---------------------------------------------------------------------------
# weyl_m_grid on the real axis: the scalar series, looped, bit for bit
# ---------------------------------------------------------------------------

@functools.cache
def _padic_spectral(p, alpha):
    return sx.build_padic_model(p, alpha).spectral


def _weyl_or_refusal(p, alpha, z, grid):
    """M(z) at R = I, from scalar ``weyl_m`` or through ``weyl_m_grid``,
    which loops over the model's scalar ``m_hat``, or the type of its
    refusal."""
    spectral = _padic_spectral(p, alpha)
    try:
        if grid:
            return sx.weyl_m_grid(spectral, 1.0, [z])[0, 0, 0]
        return sx.weyl_m(spectral, 1.0, z).matrix[0, 0]
    except (ConvergenceError, PoleError) as err:
        return type(err)


def _bits(value):
    return np.array([value], dtype=complex).tobytes()


@pytest.mark.parametrize("p, alpha", MODELS)
def test_real_axis_grid_is_the_complex_series_bit_for_bit(p, alpha):
    lam = models._padic_scales(p, alpha)[0]
    negative = -np.logspace(-14, 8, 1000)
    positive = np.logspace(-6, 4, 1500)
    positive = positive[np.abs(positive[:, None] / lam - 1.0).min(axis=1) > 1e-6]
    z = np.concatenate([negative, positive]).astype(complex)
    want = [_weyl_or_refusal(p, alpha, zk, grid=False) for zk in z.tolist()]
    for zk, w in zip(z.tolist(), want):
        got = _weyl_or_refusal(p, alpha, zk, grid=True)
        if isinstance(w, type):
            assert got is w, zk
        else:
            assert _bits(got) == _bits(w), zk  # the sign of a zero imaginary part too
    ok = np.array([not isinstance(w, type) for w in want])
    assert ok[:len(negative)].all() and ok.sum() > 0.99 * len(z)
    assert np.array_equal(sx.weyl_m_grid(_padic_spectral(p, alpha), 1.0, z[ok])[:, 0, 0],
                          np.array([w for w in want if not isinstance(w, type)]))


@pytest.mark.parametrize("p, alpha", MODELS)
def test_real_axis_grid_refuses_where_the_scalar_series_does(p, alpha):
    lam = models._padic_scales(p, alpha)[0]
    pole = complex(lam[len(lam) // 2 + 2])
    assert _weyl_or_refusal(p, alpha, pole, grid=False) is PoleError
    assert _weyl_or_refusal(p, alpha, pole, grid=True) is PoleError
    with pytest.raises(PoleError, match=repr(pole.real)):
        sx.weyl_m_grid(_padic_spectral(p, alpha), 1.0, np.array([-1.0, pole, 2.5]))
    for zero in (0j, complex(0.0, -0.0), complex(-0.0, 0.0)):
        want = _weyl_or_refusal(p, alpha, zero, grid=False)
        got = _weyl_or_refusal(p, alpha, zero, grid=True)
        assert got is want if isinstance(want, type) else _bits(got) == _bits(want)


# ---------------------------------------------------------------------------
# Mhat as its own series
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p, alpha", MODELS)
@pytest.mark.parametrize("z", POINTS, ids=repr)
def test_m_hat_matches_mpmath(p, alpha, z):
    want = mpmath_series(p, alpha, z, "m_hat")
    assert relative_error(models.padic_m_hat(p, alpha, z), want) <= REL_TOL
    if not z.imag:
        assert relative_error(direct_m_hat(p, alpha, z.real), want) <= 1e-16


# Between two eigenvalues lambda_N, E(x) has zeros.  The E series converges
# there, but its edge-and-tail bound exceeds 1e-15 of |E|, which vanishes:
# E is refused.  Mhat is regular there, and its own series is accepted.
NEAR_ZERO_OF_E = [(2, 1.5, 0.7857754080156192), (3, 0.75, 10.5279)]


@pytest.mark.parametrize("p, alpha, x", NEAR_ZERO_OF_E)
def test_m_hat_is_accepted_next_to_a_zero_of_e(p, alpha, x):
    with pytest.raises(ConvergenceError):
        models.padic_resolvent(p, alpha, x)
    spec = sx.build_padic_model(p, alpha)
    r = sx.solve_homogeneous_R(spec.family, spec.gram).matrix[0, 0]
    want = direct_m_hat(p, alpha, x)
    assert relative_error(spec.spectral.m_hat(x)[0, 0], want) <= REL_TOL
    want_m = -1.0 / (r + want)
    assert relative_error(sx.weyl_m(spec.spectral, r, x).matrix[0, 0], want_m) <= REL_TOL
    # through weyl_m_grid, next to a point where E passes its own rule
    grid = sx.weyl_m_grid(spec.spectral, r, [x, 1.01 * x])
    assert relative_error(grid[0, 0, 0], want_m) <= REL_TOL
    want_m = -1.0 / (r + direct_m_hat(p, alpha, 1.01 * x))
    assert relative_error(grid[1, 0, 0], want_m) <= REL_TOL


@pytest.mark.parametrize("p, alpha", MODELS)
def test_m_hat_keeps_e_rule_values_bit_for_bit(p, alpha):
    # Mhat, summed as its own series, meets a direct 40-digit sum of that
    # series to 1e-12 over the grid where it was once assembled from E, and
    # refuses what the E rule refused; weyl_m_grid, which loops over m_hat,
    # equals -(1 + Mhat)^-1 bit for bit
    spec = sx.build_padic_model(p, alpha)
    z = np.concatenate([[0.0], -np.logspace(-6, 4, 200),
                        np.logspace(-3, 3, 800)]).astype(complex)
    refused = []
    for zk in z.tolist():
        try:
            got = spec.spectral.m_hat(zk)
        except PoleError:
            continue
        except ConvergenceError:
            refused.append(zk)
            continue
        assert relative_error(got[0, 0], direct_m_hat(p, alpha, zk.real)) <= 1e-12, zk
        grid = sx.weyl_m_grid(spec.spectral, 1.0, [zk])[0]
        assert grid.tobytes() == (-(1.0 / (1.0 + got))).tobytes(), zk
    # the series diverges at 0 for alpha >= 1, and nowhere else on the grid
    assert refused == ([0j] if alpha >= 1.0 else [])


def test_m_hat_and_search_make_no_e_call(monkeypatch):
    # E(z) is an oracle: neither the model's Mhat nor its search sums it
    calls = []
    e_series = models.padic_resolvent
    monkeypatch.setattr(models, "padic_resolvent",
                        lambda *args, **kw: calls.append(args) or e_series(*args, **kw))
    spec = sx.build_padic_model(2, 1.5)
    r = sx.solve_homogeneous_R(spec.family, spec.gram).matrix
    for z in (-1.0, -1e6, 0.5, 0.3 + 0.8j, 1e8j):
        spec.spectral.m_hat(z)
    b = sx.weyl_m(spec.spectral, r, -1.0).matrix.real
    roots = sx.find_negative_eigenvalues(spec.spectral, r, b, (-3.0, -0.3))
    assert len(roots) == 1 and abs(roots[0] + 1.0) <= 1e-12, roots
    assert calls == []
