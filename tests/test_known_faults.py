"""Regression tests for known wrong outputs, kept as strict expected failures.

Each test states the correct behaviour.  Once the fault is mended the
test passes, the strict marker turns that into a failure, and the marker
must come off.
"""

import json

import numpy as np
import pytest

import singext as sx
from singext import cli
from singext.errors import ConvergenceError, PoleError
from singext.models import padic_closed_form_m


# Roots of even multiplicity make no sign change of det(B - M(x)), so the
# scan misses them; the exact route of the continuous families finds them.
@pytest.mark.parametrize("build, coupling, interval, root", [
    # orthonormal scaling 3/2 with B = M(-1) = 0.5 I: a double root at -1
    (lambda: sx.build_scaling_invariant_3d(1.5, n=2), 0.5 * np.eye(2), (-3.0, -0.3), -1.0),
    # one-dim with B = diag(-1, 4): both diagonal factors of B - M(x)
    # vanish at sqrt(-x) = 1/2
    (sx.build_one_dim_model, np.diag([-1.0, 4.0]), (-3.0, -0.1), -0.25),
], ids=["scaling 3/2 n=2", "one-dim diag(-1, 4)"])
def test_double_eigenvalue_is_found(build, coupling, interval, root):
    model = build()
    r = sx.solve_homogeneous_R(model.family, model.gram).matrix
    m = sx.weyl_m(model.spectral, r, root).matrix
    np.testing.assert_allclose(np.linalg.eigvalsh(coupling - m), [0.0, 0.0], atol=1e-9)
    roots = sx.find_negative_eigenvalues(model.spectral, r, coupling, interval)
    assert len(roots) == 1 and abs(roots[0] - root) <= 1e-12, roots


@pytest.mark.parametrize("z", [1.0 + 1e-12j, -1e-14 + 0j])
def test_weyl_m_next_to_spectrum_is_right_or_refused(scaling, scaling_r, z):
    exact = 1.0 / (2.0 * np.sqrt(-z))  # orthonormal scaling model, alpha = 3/2
    try:
        got = sx.weyl_m(scaling.spectral, scaling_r, z).matrix[0, 0]
    except (ConvergenceError, PoleError):
        return
    assert abs(got - exact) <= 1e-6 * max(1.0, abs(exact)), got


@pytest.mark.parametrize("z", [1e4j, -1e6 + 0j])
def test_point_d1_weyl_m_keeps_its_accuracy_at_large_z(point_models, z):
    model = point_models[1]
    r = sx.solve_homogeneous_R(model.family, model.gram).matrix
    exact = -2.0 * np.sqrt(-z)  # M(z) of the delta interaction on the line
    got = sx.weyl_m(model.spectral, r, z).matrix[0, 0]
    assert abs(got - exact) <= 1e-12 * abs(exact), abs(got - exact) / abs(exact)


# The rest of ROADMAP item 2's large-|z| table, at the same 1e-12 relative.
# The p-adic Mhat is its own series, (z + 1) (p - 1) sum_N p^-N /
# ((lambda_N + 1) (lambda_N - z)); its assembly w (overlap + w E(z)),
# w = z + 1, from the series E cancelled as |z| grew.

@pytest.mark.parametrize("z", [1e4j, -1e6 + 0j])
def test_one_dim_delta_channel_keeps_its_accuracy_at_large_z(one_dim, z):
    r = sx.solve_homogeneous_R(one_dim.family, one_dim.gram).matrix
    # item 6's power law M_11(z) = M_11(-1) (-z)^(1/2): p(t) = t^-2 and
    # xi_1(t) = t^-1/2 give gamma_11 = 1 - log(xi_1^2) / log p = 1/2
    exact = sx.weyl_m(one_dim.spectral, r, -1.0).matrix[0, 0] * np.sqrt(-z)
    got = sx.weyl_m(one_dim.spectral, r, z).matrix[0, 0]
    assert abs(got - exact) <= 1e-12 * abs(exact), abs(got - exact) / abs(exact)


@pytest.mark.parametrize("z", [-1e6 + 0j, 1e8j])
def test_padic_weyl_m_keeps_its_accuracy_at_large_z(padic, padic_r, z):
    exact = padic_closed_form_m(2, 1.5)(z)[0, 0]
    got = sx.weyl_m(padic.spectral, padic_r, z).matrix[0, 0]
    assert abs(got - exact) <= 1e-12 * abs(exact), abs(got - exact) / abs(exact)


# At |x| ~ 1e3 to 1e4 the assembly from E was already 2.1e-10 off and
# moved the root planted at X0 by 3.8e-10.  The closed Weyl series is
# 1.8e-16 off a 40-digit mpmath sum at X0; the root below is B = Re M(X0).
PADIC_5_X0 = -7284.9062957481565


@pytest.fixture(scope="module")
def padic_5():
    model = sx.build_padic_model(5, 2.5)
    r = sx.solve_homogeneous_R(model.family, model.gram).matrix
    return model.spectral, r, padic_closed_form_m(5, 2.5)(PADIC_5_X0)[0, 0]


def test_padic_weyl_m_is_accurate_at_moderate_negative_x(padic_5):
    spectral, r, exact = padic_5
    got = sx.weyl_m(spectral, r, PADIC_5_X0).matrix[0, 0]
    assert abs(got - exact) <= 1e-12 * abs(exact), abs(got - exact) / abs(exact)


def test_padic_eigenvalue_is_accurate_at_moderate_negative_x(padic_5):
    spectral, r, exact = padic_5
    roots = sx.find_negative_eigenvalues(spectral, r, [[exact.real]], (-1e4, -1e-4))
    assert len(roots) == 1, roots
    assert abs(roots[0] - PADIC_5_X0) <= 1e-12 * abs(PADIC_5_X0), roots


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 14: nonneg decides every model by "
                   "the Loewner test of orthonormal channels, and prints false here")
def test_nonneg_of_point_d1_is_right_or_refused(capsys):
    # R = 1/2 and Mhat(x) = ((-x)^(-1/2) - 1) / 2 give K(x) = R + Mhat(x)
    # = (-x)^(-1/2) / 2 > 0, so g = 1 + B K > 0 on all of (-inf, 0) for
    # B = 0.13: by Krein's formula the realization has no negative eigenvalue
    code = cli.run(["nonneg", "--kind", "PointInteractionRd", "--d", "1", "--B", "[[0.13]]"])
    out = capsys.readouterr().out
    assert code == 3 or (code == 0 and json.loads(out)["output"]["nonnegative"] is True), out
