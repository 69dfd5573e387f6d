"""The closed-form resolvent integral behind the scaling and point backends.

``models.radial_resolvent_closed(nu, z)`` evaluates
I_nu(z) = int_0^inf r^(2nu-1) / ((1+r^2)^2 (r^2 - z)) dr.  It is checked
against two independent routes, mpmath's quadrature and the package's
own QUADPACK oracle ``radial_resolvent_integral``, and through
``weyl_m`` against the properties every Weyl function has.
"""

import cmath
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singext as sx
from singext import models
from singext.errors import PoleError
from singext.weyl import hermitian_imag_min_eig

NUS = [0.5, 1.0, 1.01, 1.3, 1.5, 1.9, 1.99]
RADIUS = models.TAYLOR_RADIUS
# z = -1, where the closed forms cancel; 0.1% of the radius inside and
# outside the Taylor disc's edge, on the real axis and off it
DISC_POINTS = [-1.0 + 0j] + [
    -1.0 + RADIUS * f * cmath.exp(1j * theta)
    for f in (0.999, 1.001) for theta in (0.0, math.pi, 0.5 * math.pi, -2.2)]
# next to the spectrum, far out on the negative axis
EDGE_POINTS = [complex(-1e-14, 0.0), complex(-50.0, 0.0), complex(1.0, 1e-12)]
REL_TOL = 1e-12


@functools.cache
def mpmath_integral(nu: float, z: complex) -> complex:
    """mpmath's quadrature, split at sqrt(|z|) where r^2 - z is smallest."""
    with mpmath.workdps(30):
        zm = mpmath.mpc(z)
        f = lambda r: r ** (2 * mpmath.mpf(nu) - 1) / ((1 + r * r) ** 2 * (r * r - zm))
        return complex(mpmath.quad(f, [0, mpmath.sqrt(abs(zm)), mpmath.inf]))


def relative_error(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("z", DISC_POINTS + EDGE_POINTS, ids=repr)
@pytest.mark.parametrize("nu", NUS)
def test_closed_form_matches_mpmath(nu, z):
    got = models.radial_resolvent_closed(nu, z)
    assert relative_error(got, mpmath_integral(nu, z)) <= REL_TOL


@pytest.mark.parametrize("z", DISC_POINTS + EDGE_POINTS[1:2], ids=repr)
@pytest.mark.parametrize("nu", NUS)
def test_closed_form_matches_quadrature_oracle(nu, z):
    # Next to the spectrum (-1e-14, 1 + 1e-12 i) QUADPACK itself is wrong.
    got = models.radial_resolvent_closed(nu, z)
    want = models.radial_resolvent_integral(2.0 * nu - 1.0, z)
    assert relative_error(got, want) <= REL_TOL


@pytest.mark.parametrize("nu", NUS)
def test_closed_form_is_conjugate_symmetric_bit_for_bit(nu):
    for z in DISC_POINTS + EDGE_POINTS + [complex(2.0, 0.05), complex(-3.0, 7.0)]:
        assert models.radial_resolvent_closed(nu, z.conjugate()) == \
            models.radial_resolvent_closed(nu, z).conjugate()


def test_closed_form_at_zero():
    # I_nu(0) = B(nu - 1, 3 - nu) / 2 is finite for nu > 1; E has a pole otherwise
    for nu in (1.01, 1.5, 1.99):
        want = 0.5 * math.gamma(nu - 1.0) * math.gamma(3.0 - nu)
        assert relative_error(models.radial_resolvent_closed(nu, 0.0), want) <= REL_TOL
    for nu in (0.5, 1.0):
        with pytest.raises(PoleError):
            models.radial_resolvent_closed(nu, 0.0)


@pytest.mark.parametrize("nu", [0.0, -0.5, 2.0, 2.5, float("nan")])
def test_closed_form_refuses_divergent_exponents(nu):
    with pytest.raises(ValueError, match="0 < nu < 2"):
        models.radial_resolvent_closed(nu, -1.0)


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5])
def test_backends_use_the_closed_form(nu):
    z = complex(0.3, 0.8)
    assert models.e_alpha(nu, z) == models.radial_resolvent_closed(nu, z)
    d = int(2 * nu)
    prefactor = (2.0 * math.pi) ** (-d) * models.SPHERE_SURFACE[d]
    assert models.point_interaction_resolvent(d, z) == \
        prefactor * models.radial_resolvent_closed(nu, z)


# boundary values on the spectrum ---------------------------------------------

def test_real_positive_z_is_the_upper_boundary_value(scaling, scaling_r, point_models):
    # orthonormal scaling 3/2: M(z) = 1 / (2 sqrt(-z)), so M(1 + i0) = i/2
    for z in (1.0, complex(1.0, 0.0), complex(1.0, -0.0)):
        m = sx.weyl_m(scaling.spectral, scaling_r, z).matrix[0, 0]
        assert abs(m - 0.5j) <= 1e-12
    # point interactions: M = -2 sqrt(-z) (d = 1), 4 pi / sqrt(-z) (d = 3)
    x = 2.5
    upper = cmath.sqrt(complex(-x, -0.0))  # -i sqrt(x)
    for d, closed in ((1, -2.0 * upper), (3, 4.0 * math.pi / upper)):
        spec = point_models[d]
        r = sx.solve_homogeneous_R(spec.family, spec.gram).matrix
        m = sx.weyl_m(spec.spectral, r, x).matrix[0, 0]
        assert relative_error(m, closed) <= 1e-12
        assert m.imag > 0


# Weyl-function properties through weyl_m --------------------------------------

@functools.cache
def backend(name: str):
    """(spectral model, homogeneous R, family) of a closed-form backend."""
    if name.startswith("point"):
        spec = sx.build_point_interaction(int(name[-1]))
    elif name == "scaling 3/2, n=2, m_gram":
        spec = sx.build_scaling_invariant_3d(1.5, [[1.0, 0.3], [0.3, 0.5]])
    else:
        spec = sx.build_scaling_invariant_3d(float(name.split()[-1]))
    r = sx.solve_homogeneous_R(spec.family, spec.gram).matrix
    return spec.spectral, r, spec.family


BACKENDS = ["point d=1", "point d=3", "scaling 1.01", "scaling 1.3", "scaling 1.5",
            "scaling 1.9", "scaling 3/2, n=2, m_gram"]
nonreal = st.builds(complex, st.floats(-20.0, 20.0),
                    st.floats(1e-2, 20.0) | st.floats(-20.0, -1e-2))


def scale(m: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(m)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(BACKENDS), z=nonreal)
def test_weyl_conjugate_symmetry(name, z):
    spectral, r, _ = backend(name)
    m = sx.weyl_m(spectral, r, z).matrix
    m_conj = sx.weyl_m(spectral, r, z.conjugate()).matrix
    assert np.linalg.norm(m_conj - m.conj().T) <= 1e-12 * scale(m)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(BACKENDS), z=nonreal)
def test_weyl_herglotz_positivity(name, z):
    spectral, r, _ = backend(name)
    m = sx.weyl_m(spectral, r, complex(z.real, abs(z.imag))).matrix
    assert hermitian_imag_min_eig(m) >= -1e-12 * scale(m)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(BACKENDS), z=nonreal, k=st.integers(0, 6))
def test_weyl_homogeneity(name, z, k):
    # p(t) M(z) = Xi(t) M(p(t) z) Xi(t) for the homogeneous R.  The residual
    # also carries the cancellation in overlap + (z+1) E(z) at large |z|
    # (1.2e-10 on point d=1 at z = 8i, t = 1/8, where p z = 512i); a wrong
    # branch or prefactor of the resolvent gives a residual of order one.
    spectral, r, family = backend(name)
    t = family.sample_points[k]
    m = lambda w: sx.weyl_m(spectral, r, w).matrix
    assert sx.check_weyl_homogeneity(m, family, z, t) <= 1e-9


@pytest.mark.parametrize("alpha", [1.01, 1.3, 1.5, 1.9, 1.99])
def test_weyl_homogeneity_near_zero(alpha):
    # At z = 0.01i and t = 1/8, R + Mhat(p z) nearly cancels and amplifies any
    # error of the build-time constants c_alpha and h_norm into the residual:
    # with the quadrature constants it read 2.6e-8 at alpha = 1.9 and 2e-6 at
    # alpha = 1.99; with their closed forms it stays below 1e-12.
    spectral, r, family = backend(f"scaling {alpha}")
    m = lambda w: sx.weyl_m(spectral, r, w).matrix
    for t in family.sample_points:
        assert sx.check_weyl_homogeneity(m, family, 0.01j, t) <= 1e-11
