"""Regression tests for known wrong outputs, kept as strict expected failures.

Each test states the correct behaviour.  Once the fault is mended the
test passes, the strict marker turns that into a failure, and the marker
must come off.
"""

import numpy as np
import pytest

import singext as sx
from singext.errors import ConvergenceError, PoleError
from singext.models import padic_closed_form_m


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the sign-change search of "
                   "det(B - M(x)) misses eigenvalues of even multiplicity")
def test_double_eigenvalue_is_found():
    model = sx.build_scaling_invariant_3d(1.5, n=2)
    r = sx.solve_homogeneous_R(model.family, model.gram).matrix
    b = sx.weyl_m(model.spectral, r, -1.0).matrix.real
    np.testing.assert_allclose(b, 0.5 * np.eye(2), atol=1e-9)
    roots = sx.find_negative_eigenvalues(model.spectral, r, b, (-3.0, -0.3))
    assert any(abs(x + 1.0) <= 1e-8 for x in roots), roots


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

@pytest.mark.parametrize("z", [1e4j, -1e6 + 0j])
def test_one_dim_delta_channel_keeps_its_accuracy_at_large_z(one_dim, z):
    r = sx.solve_homogeneous_R(one_dim.family, one_dim.gram).matrix
    # item 6's power law M_11(z) = M_11(-1) (-z)^(1/2): p(t) = t^-2 and
    # xi_1(t) = t^-1/2 give gamma_11 = 1 - log(xi_1^2) / log p = 1/2
    exact = sx.weyl_m(one_dim.spectral, r, -1.0).matrix[0, 0] * np.sqrt(-z)
    got = sx.weyl_m(one_dim.spectral, r, z).matrix[0, 0]
    assert abs(got - exact) <= 1e-12 * abs(exact), abs(got - exact) / abs(exact)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the E(z) route of the "
                   "p-adic (2, 3/2) model loses relative accuracy at large |z|")
@pytest.mark.parametrize("z", [-1e6 + 0j, 1e8j])
def test_padic_weyl_m_keeps_its_accuracy_at_large_z(padic, padic_r, z):
    exact = padic_closed_form_m(2, 1.5)(z)[0, 0]
    got = sx.weyl_m(padic.spectral, padic_r, z).matrix[0, 0]
    assert abs(got - exact) <= 1e-12 * abs(exact), abs(got - exact) / abs(exact)
