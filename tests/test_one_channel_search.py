"""The bracketed eigenvalue search of one channel.

For n = 1, det(B - M(x)) = g(x) / K(x) with K = R + Mhat and
g = 1 + B K, which is monotone on the negative axis.  On the models
without a negative-axis datum (p-adic, point d = 2)
``find_negative_eigenvalues`` brackets the one root of g with ``m_hat``
alone.  Point d = 2 has it in closed form: Mhat(x) = -(P/2) log(-x) with
P = 1/(2 pi), so g vanishes at x = -exp(2 (1/B + R) / P), and M has its
pole (K = 0) at x = -exp(2 R / P).
"""

import dataclasses
import math

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
    # puts the pole of M at hi, where the inertia count raises PoleError
    # and one channel goes to the bracket; g = 1 there, and g(x) = 0 at
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


def _planted(name, seed):
    """(spectral model, R, B, x0): B = M(x0) at a seeded x0 as in the
    benchmark's planted searches; R = 0.1 keeps point d = 2's pole out."""
    if name == "point_d2":
        spec, r = sx.build_point_interaction(2), np.array([[0.1]])
    else:
        p, alpha = {"padic_2_1.5": (2, 1.5), "padic_3_0.75": (3, 0.75)}[name]
        spec = sx.build_padic_model(p, alpha)
        r = sx.solve_homogeneous_R(spec.family, spec.gram).matrix
    x0 = float(np.random.default_rng([seed, 16]).uniform(-2.6, -0.6))
    b = sx.weyl_m(spec.spectral, r, x0).matrix.real
    return spec.spectral, r, b, x0


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", ["padic_2_1.5", "padic_3_0.75", "point_d2"])
def test_planted_search_without_a_datum_stays_off_the_scan(name, seed, monkeypatch):
    # at most 40 m_hat calls, no grid, no weyl_m: a return to a scan fails
    # here without any timing
    spectral, r, b, x0 = _planted(name, seed)
    assert spectral.n == 1 and spectral.negative_axis is None
    m_hat_calls, other = [], []
    counted = dataclasses.replace(
        spectral, m_hat=lambda z: m_hat_calls.append(z) or spectral.m_hat(z))
    for attr in ("weyl_m_grid", "weyl_m"):
        monkeypatch.setattr(weyl, attr, lambda *a, attr=attr: other.append(attr))
    got = sx.find_negative_eigenvalues(counted, r, b, PLANTED_INTERVAL)
    assert other == []
    assert 0 < len(m_hat_calls) <= 40
    np.testing.assert_allclose(got, [x0], rtol=1e-12, atol=0.0)
    first = list(m_hat_calls)
    m_hat_calls.clear()
    assert sx.find_negative_eigenvalues(counted, r, b, PLANTED_INTERVAL) == got
    assert m_hat_calls == first  # the same points, so the same call count


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
