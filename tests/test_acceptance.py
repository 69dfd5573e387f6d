"""Acceptance gate: every criterion runs at its pinned tolerance and
prints one pass/fail line."""

import numpy as np
import pytest

import singext as sx
from singext import acceptance


@pytest.mark.parametrize("number", sorted(acceptance.CRITERIA))
def test_criterion(number):
    result = acceptance.CRITERIA[number]()
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {result.number}: {status} - {result.title} "
          f"[{result.detail}]")
    assert result.passed, f"criterion {result.number}: {result.detail}"


def test_criterion_6_grid_scan_gives_the_scalar_scan_verdicts(scaling, scaling_r):
    # criterion 6 scans M(x) with one weyl_m_grid call; the two routes
    # round differently, so no swept b may lie within rounding of a value
    xs = np.linspace(-50.0, -1e-4, 10 ** 4)
    grid = sx.weyl_m_grid(scaling.spectral, scaling_r, xs)[:, 0, 0].real
    scalar = np.array([sx.weyl_m(scaling.spectral, scaling_r, x).matrix[0, 0].real
                       for x in xs])
    for b in np.linspace(-5.0, 5.0, 200).tolist():
        assert (acceptance.negative_axis_root_oracle(grid, b)
                == acceptance.negative_axis_root_oracle(scalar, b)), b
        assert min(np.abs(b - grid).min(), np.abs(b - scalar).min()) >= 1e-9, b


def _sign_change_rule(m_values, b):
    """The scan oracle spelled out point by point: b - M vanishes at a
    sample or changes sign between neighbours, or a root lies off an edge."""
    diffs = b - m_values
    if np.any(diffs == 0.0) or np.any(np.sign(diffs[:-1]) != np.sign(diffs[1:])):
        return True
    return 0.0 < b < m_values[0] or b > m_values[-1] > 0.0


def test_root_oracle_is_the_sign_change_rule(scaling, scaling_r):
    rng = np.random.default_rng(6)
    xs = np.linspace(-50.0, -1e-4, 10 ** 4)
    scans = [sx.weyl_m_grid(scaling.spectral, scaling_r, xs)[:, 0, 0].real]
    # rough and repeated values, with b at samples, between them and outside
    scans += [rng.normal(size=k) for k in (1, 2, 5, 40)]
    scans += [rng.integers(-3, 4, size=30).astype(float), np.array([2.0, 2.0, 1.0])]
    for m in scans:
        bs = np.concatenate([np.linspace(-5.0, 5.0, 200), m, m + 1e-12,
                             [m.min() - 1.0, m.max() + 1.0, 0.0]])
        got = acceptance.negative_axis_root_oracle(m, bs)
        assert got.tolist() == [_sign_change_rule(m, b) for b in bs.tolist()]


def _count_calls(monkeypatch, targets):
    """Record the name of every call to the (module, name) targets."""
    calls = []
    for where, fn in targets:
        real = getattr(where, fn)
        monkeypatch.setattr(where, fn,
                            lambda *a, fn=fn, real=real, **k: calls.append(fn) or real(*a, **k))
    return calls


def test_criterion_7_makes_one_scalar_s_matrix_and_one_solve_per_n(monkeypatch):
    # the unitarity draws go to s_matrix_grid grouped by n, a LAPACK solve
    # for each n of 2 to 4 and the elementwise quotient for n = 1; the
    # contractivity sweep's 1x1 calls take the quotient; only S(0) = I
    # is a scalar s_matrix call
    calls = _count_calls(monkeypatch, [(acceptance, "s_matrix"), (np.linalg, "solve")])
    assert acceptance.criterion_7().passed
    assert calls.count("s_matrix") == 1
    assert calls.count("solve") <= 3


def test_criterion_5_makes_500_weyl_m_calls_and_one_eigvalsh_per_backend(monkeypatch):
    # verify's weyl_evals_per_s counts these 500 scalar weyl_m calls;
    # each backend's Herglotz check is one stacked eigvalsh, counted once
    # the backends are built (each build checks its overlap with one)
    backends = acceptance._weyl_backends()
    monkeypatch.setattr(acceptance, "_weyl_backends", lambda: backends)
    calls = _count_calls(monkeypatch, [(acceptance, "weyl_m"), (np.linalg, "eigvalsh")])
    assert acceptance.criterion_5().passed
    assert calls.count("weyl_m") == 500
    assert calls.count("eigvalsh") == 5
