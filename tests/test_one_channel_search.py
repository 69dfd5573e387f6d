"""The bracketed eigenvalue search of one channel.

For n = 1, det(B - M(x)) = g(x) / K(x) with K = R + Mhat and
g = 1 + B K, which is monotone on the negative axis.  On every model of
one channel, with or without a negative-axis datum,
``find_negative_eigenvalues`` brackets the one root of g with ``m_hat``
alone; an end where g is zero to rounding is the root, and ``tol`` sets
no stop.  Point d = 2 has the root in closed form: Mhat(x) =
-(P/2) log(-x) with P = 1/(2 pi), so g vanishes at
x = -exp(2 (1/B + R) / P), and M has its pole (K = 0) at
x = -exp(2 R / P).  On point d = 1, 3 and the scaling models the datum
gives Mhat(x) = C_0 + C_1 u with u = (-x)^q, so g vanishes at the u of a
linear equation, solved here at 40 digits.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

import singext as sx
from singext import weyl
from singext.errors import ConvergenceError

P = 1.0 / (2.0 * math.pi)
WIDE = (-1e6, -1e-12)
PLANTED_INTERVAL = (-3.0, -0.3)


@pytest.fixture(scope="module")
def point_d2():
    return sx.build_point_interaction(2)


def _closed_root(r: float, b: float) -> float:
    return -math.exp(2.0 * (1.0 / b + r) / P)


def _assert_closed_root(spectral, r, b, interval=WIDE):
    want = _closed_root(r, b)
    got = sx.find_negative_eigenvalues(spectral, [[r]], [[b]], interval)
    assert len(got) == 1, (r, b, want, got)
    assert abs(got[0] - want) <= 1e-13 * abs(want), (r, b, want, got)


@pytest.mark.parametrize("r, b, root, pole", [
    # the root shares the old scan's last grid cell with the pole: no
    # sign change of det(B - M), and the scan printed []
    (0.1, -5.0, -0.2846095433360293, -3.51),
    # the old bisection ran into the pole and raised PoleError
    (0.3, 2.0, -23227.59966876296, -43.4),
], ids=["root in the pole's cell", "pole inside the bracket"])
def test_point_d2_root_next_to_a_pole(point_d2, r, b, root, pole):
    assert _closed_root(r, b) == pytest.approx(root, rel=1e-15)
    assert -math.exp(2.0 * r / P) == pytest.approx(pole, rel=1e-2)
    _assert_closed_root(point_d2.spectral, r, b)


def test_point_d2_seeded_roots_match_the_closed_form(point_d2):
    rng = np.random.default_rng(16)
    for _ in range(10):
        r = float(rng.uniform(-1.0, 1.0))
        log_root = float(rng.uniform(math.log(1e-11), math.log(1e5)))
        b = 1.0 / (0.5 * P * log_root - r)
        _assert_closed_root(point_d2.spectral, r, b)


def test_point_d2_root_near_zero_keeps_its_relative_accuracy(point_d2):
    # an absolute tol of 1e-10 put a root near -1.2e-11 0.1% off
    b = 1.0 / (0.5 * P * math.log(1.2e-11))
    assert _closed_root(0.0, b) == pytest.approx(-1.2e-11, rel=1e-13)
    _assert_closed_root(point_d2.spectral, 0.0, b)


@pytest.mark.parametrize("b", [0.0, 0.02, -2.0], ids=["B = 0", "root below", "root above"])
def test_point_d2_no_root_in_the_interval(point_d2, b):
    # B = 0 makes g = 1; the others put the root outside (-3, -0.3)
    lo, hi = PLANTED_INTERVAL
    assert not b or not lo <= _closed_root(0.1, b) <= hi
    assert sx.find_negative_eigenvalues(point_d2.spectral, [[0.1]], [[b]],
                                        PLANTED_INTERVAL) == []


def test_pole_at_an_end_leaves_the_exact_route_for_the_bracket(monkeypatch):
    # point d = 3: Mhat(x) = -(sqrt(-x) - 1) / (4 pi), and R = -Mhat(hi)
    # puts the pole of M at hi, where M cannot be inverted; the bracket
    # never forms M, g = 1 there, and g(x) = 0 at
    # sqrt(-x) = sqrt(-hi) + 4 pi / B
    spectral = sx.build_point_interaction(3).spectral
    lo, hi, b = -3.0, -0.5, 20.0
    r = -spectral.m_hat(complex(hi)).real
    grids = []
    monkeypatch.setattr(weyl, "weyl_m_grid", lambda *a: grids.append(a))
    got = sx.find_negative_eigenvalues(spectral, r, [[b]], (lo, hi))
    want = -(math.sqrt(-hi) + 4.0 * math.pi / b) ** 2
    assert grids == []
    assert got == [pytest.approx(want, rel=1e-13, abs=0.0)]


def _homogeneous(spec):
    return spec.spectral, sx.solve_homogeneous_R(spec.family, spec.gram).matrix


# Every model of one channel with its R: the homogeneous one, and 0.1 for
# point d = 2, which has none and whose pole of M it keeps out of
# PLANTED_INTERVAL
ONE_CHANNEL = {
    "padic_2_1.5": lambda: _homogeneous(sx.build_padic_model(2, 1.5)),
    "padic_3_0.75": lambda: _homogeneous(sx.build_padic_model(3, 0.75)),
    "point_d1": lambda: _homogeneous(sx.build_point_interaction(1)),
    "point_d2": lambda: (sx.build_point_interaction(2).spectral, np.array([[0.1]])),
    "point_d3": lambda: _homogeneous(sx.build_point_interaction(3)),
    **{f"scaling_{a}": (lambda a=a: _homogeneous(sx.build_scaling_invariant_3d(a)))
       for a in (1.3, 1.5, 1.9)},
}
WITH_A_DATUM = ["point_d1", "point_d3", "scaling_1.3", "scaling_1.5", "scaling_1.9"]


def _planted(name, seed):
    """(spectral model, R, B, x0): B = M(x0) at a seeded x0 as in the
    benchmark's planted searches."""
    spectral, r = ONE_CHANNEL[name]()
    x0 = float(np.random.default_rng([seed, 16]).uniform(-2.6, -0.6))
    b = sx.weyl_m(spectral, r, x0).matrix.real
    return spectral, r, b, x0


def _assert_brackets_off_the_scan(spectral, r, b, x0, monkeypatch):
    """At most 40 m_hat calls, the same points on a repeat, and no
    ``weyl_m``, ``weyl_m_grid`` or ``np.linalg.eigvals`` call: a return to
    a scan or to the exact route fails here without any timing."""
    m_hat_calls, other = [], []
    counted = dataclasses.replace(
        spectral, m_hat=lambda z: m_hat_calls.append(z) or spectral.m_hat(z))
    for owner, attr in ((weyl, "weyl_m_grid"), (weyl, "weyl_m"), (np.linalg, "eigvals")):
        monkeypatch.setattr(owner, attr, lambda *a, attr=attr: other.append(attr))
    got = sx.find_negative_eigenvalues(counted, r, b, PLANTED_INTERVAL)
    assert other == []
    assert 0 < len(m_hat_calls) <= 40
    np.testing.assert_allclose(got, [x0], rtol=1e-12, atol=0.0)
    first = list(m_hat_calls)
    m_hat_calls.clear()
    assert sx.find_negative_eigenvalues(counted, r, b, PLANTED_INTERVAL) == got
    assert m_hat_calls == first  # the same points, so the same call count


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", ["padic_2_1.5", "padic_3_0.75", "point_d2"])
def test_planted_search_without_a_datum_stays_off_the_scan(name, seed, monkeypatch):
    spectral, r, b, x0 = _planted(name, seed)
    assert spectral.n == 1 and spectral.negative_axis is None
    _assert_brackets_off_the_scan(spectral, r, b, x0, monkeypatch)


@pytest.mark.parametrize("name", ["point_d1", "point_d3", "scaling_1.5"])
def test_planted_search_with_a_datum_brackets_too(name, monkeypatch):
    # the negative-axis polynomial does not send one channel to the exact
    # route, whose count took two weyl_m calls and one eigvals
    spectral, r, b, x0 = _planted(name, 0)
    assert spectral.n == 1 and spectral.negative_axis is not None
    _assert_brackets_off_the_scan(spectral, r, b, x0, monkeypatch)


@pytest.mark.parametrize("name", sorted(ONE_CHANNEL))
def test_a_root_at_an_end_of_the_interval_is_that_end(name):
    # B = M(end) makes g zero to rounding at the end (at most 1.1e-16 of
    # max(1, |B K|) here).  A test of the sign of g alone returned [] 44,
    # 30 and 56 times in these 600 searches on p-adic (2, 3/2), p-adic
    # (3, 3/4) and point d = 2, and on the p-adic models a point a few
    # ulp inside the end 14 and 36 times.
    spectral, r = ONE_CHANNEL[name]()
    rng = np.random.default_rng(1)
    for _ in range(300):
        lo, hi = -rng.uniform(1.5, 5.0), -rng.uniform(0.05, 1.0)
        for end in (lo, hi):
            b = sx.weyl_m(spectral, r, end).matrix.real
            assert sx.find_negative_eigenvalues(spectral, r, b, (lo, hi)) == [end], \
                (lo, hi, end)


@pytest.mark.parametrize("end", PLANTED_INTERVAL)
@pytest.mark.parametrize("name", sorted(ONE_CHANNEL))
def test_a_root_just_off_an_end_is_not_that_end(name, end):
    # 1e-9 off the end, |g(end)| / max(1, |B K|) is at least 2.38e-10,
    # far above the end rule's HERMITICITY_RTOL = 1e-12: no root just
    # outside the interval, and just inside the root itself
    spectral, r = ONE_CHANNEL[name]()
    lo, hi = PLANTED_INTERVAL
    for x0 in (end * (1.0 - 1e-9), end * (1.0 + 1e-9)):
        b = sx.weyl_m(spectral, r, x0).matrix.real
        got = sx.find_negative_eigenvalues(spectral, r, b, PLANTED_INTERVAL)
        if lo < x0 < hi:
            assert got == [pytest.approx(x0, rel=1e-14, abs=0.0)] and got != [end], (x0, got)
        else:
            assert got == [], (x0, got)


def datum_root_40(spectral, r: float, b: float):
    """The root of g at 40 digits, from Mhat(x) = C_0 + C_1 u on the
    negative axis, u = (-x)^q: 1 + B (R + C_0 + C_1 u) = 0."""
    datum = spectral.negative_axis
    assert datum.d == 0 and len(datum.coeffs) == 2
    with mpmath.workdps(40):
        c0, c1 = (mpmath.mpf(float(c[0, 0].real)) for c in datum.coeffs)
        u = -(1 / mpmath.mpf(b) + mpmath.mpf(r) + c0) / c1
        return -u ** (1 / mpmath.mpf(datum.q))


@pytest.mark.parametrize("name", WITH_A_DATUM)
def test_continuous_roots_match_the_datum_at_40_digits(name):
    # B drawn in the range of M over the interval, so that g has its one
    # root there; the companion route was off by 1.03e-15 at most on such
    # draws
    spectral, r = ONE_CHANNEL[name]()
    lo, hi = -3.0, -0.1
    m = [sx.weyl_m(spectral, r, x).matrix[0, 0].real for x in (lo, hi)]
    rng = np.random.default_rng([6, WITH_A_DATUM.index(name)])
    for b in rng.uniform(min(m), max(m), 300).tolist():
        want = datum_root_40(spectral, float(r[0, 0].real), b)
        got = sx.find_negative_eigenvalues(spectral, r, [[b]], (lo, hi))
        assert len(got) == 1, (b, got)
        with mpmath.workdps(40):
            err = float(abs((got[0] - want) / want))
        assert err <= 2e-15, (b, got, err)


def test_backend_errors_propagate(padic, padic_r):
    def refusing(z):
        if z.real < -1.0:
            raise ConvergenceError("series not within tolerance")
        return padic.spectral.m_hat(z)

    model = dataclasses.replace(padic.spectral, m_hat=refusing)
    with pytest.raises(ConvergenceError):
        sx.find_negative_eigenvalues(model, padic_r, [[-0.57]], PLANTED_INTERVAL)


def test_non_finite_m_hat_is_refused(padic, padic_r):
    model = dataclasses.replace(padic.spectral, m_hat=lambda z: np.array([[np.nan]]))
    with pytest.raises(ValueError, match="finite"):
        sx.find_negative_eigenvalues(model, padic_r, [[-0.57]], PLANTED_INTERVAL)


def test_infinite_interval_end_is_refused(padic, padic_r):
    with pytest.raises(ValueError, match="lo < hi < 0"):
        sx.find_negative_eigenvalues(padic.spectral, padic_r, [[-0.57]], (-math.inf, -0.3))
