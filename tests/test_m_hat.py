"""Mhat(z), the Weyl function of the plain defect triplet, on every backend.

The point, scaling and one-dim backends give Mhat in closed form; the
p-adic backend sums it as its own series.  The scalar E(z) functions of
``models`` are the independent oracle: Mhat(z) must equal
(z + 1) (overlap + (z + 1) E(z)) wherever that sum does not cancel.  At
large |z| it does cancel, and mpmath's quadrature of the same integral
(for the p-adic series, its 40-digit sum in ``test_padic_series``) is
the reference instead.
"""

import functools
import warnings

import mpmath
import numpy as np
import pytest

import singext as sx
from singext import models
from singext.errors import PoleError


@functools.cache
def backend(name):
    """(spectral model, E(z) oracle) of one backend."""
    if name == "one-dim":
        return sx.build_one_dim_model().spectral, models._one_dim_resolvent
    if name.startswith("point"):
        d = int(name[-1])
        spectral = sx.build_point_interaction(d).spectral
        return spectral, lambda z: np.array([[models.point_interaction_resolvent(d, z)]])
    if name == "p-adic 2,3/2":
        return (sx.build_padic_model(2, 1.5).spectral,
                lambda z: np.array([[models.padic_resolvent(2, 1.5, z)]]))
    alpha = float(name.split()[1])
    m_gram = np.array([[1.0, 0.3], [0.3, 0.5]]) if name.endswith("m_gram") else None
    spec = sx.build_scaling_invariant_3d(alpha, m_gram)
    m_mat = spec.spectral.overlap / models.scaling_constants(alpha)[1]
    return spec.spectral, lambda z: models.e_alpha(alpha, z) * m_mat


# nu = 1/2, 1 and 3/2 through the point models, the rest through scaling
CLOSED = ["point d=1", "point d=2", "point d=3", "scaling 1.01", "scaling 1.3",
          "scaling 1.5", "scaling 1.9", "scaling 1.99", "scaling 1.3 m_gram", "one-dim"]
ALL = CLOSED + ["p-adic 2,3/2"]
MODERATE = [-3.0, -0.5, -0.9, -1.2, 0.3 + 0.8j, -2.5 - 1.0j, 1.5 - 2.0j, 4.0j, 0.5, 2.0]
NONREAL = [0.3 + 0.8j, -2.5 - 1.0j, 1.5 - 2.0j, 4.0j, -0.999 + 1e-3j, 1e3 - 5.0j, 1e-3j]


def relative(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.mark.parametrize("name", CLOSED)
def test_closed_m_hat_is_the_assembly_from_the_e_oracle(name):
    spectral, e = backend(name)
    for z in MODERATE:
        w = complex(z) + 1.0
        want = w * (spectral.overlap + w * e(complex(z)))
        got = spectral.m_hat(complex(z))
        assert got.shape == (spectral.n, spectral.n)
        assert relative(got, want) <= 1e-13, z


def test_padic_m_hat_is_the_assembly_from_the_e_oracle():
    # c_N^2 (lambda_N + 1) = p^-N / (lambda_N + 1) makes the two series one
    spectral, e = backend("p-adic 2,3/2")
    for z in MODERATE:
        w = complex(z) + 1.0
        want = w * (spectral.overlap + w * e(complex(z)))
        assert relative(spectral.m_hat(complex(z)), want) <= 1e-13, z


@functools.cache
def mpmath_m_hat_point(d, z):
    """(2pi)^-d |S^(d-1)| int r^(d-1) (z+1) / ((1+r^2)(r^2-z)) dr, by quadrature."""
    with mpmath.workdps(30):
        zm = mpmath.mpc(z)
        f = lambda r: r ** (d - 1) * (zm + 1) / ((1 + r * r) * (r * r - zm))
        root = mpmath.sqrt(abs(zm))
        integral = mpmath.quad(f, [0, 1, root / 2, root, 2 * root, mpmath.inf])
        return complex(integral * models.SPHERE_SURFACE[d] / (2 * mpmath.pi) ** d)


@pytest.mark.parametrize("z", [1e4j, -1e4 + 0j, -1e6 + 0j, 1e6 + 1e6j, 1e8j, -1e8 + 0j],
                         ids=repr)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_point_m_hat_at_large_z_matches_mpmath(d, z):
    # (z+1)(overlap + (z+1)E(z)) was off by up to 9.4e-11 here
    got = backend(f"point d={d}")[0].m_hat(z)[0, 0]
    want = mpmath_m_hat_point(d, z)
    assert abs(got - want) <= 1e-14 * abs(want), abs(got - want) / abs(want)


def array_form(spectral, z):
    """The backend's Mhat over an array of z, and its scalar reference.

    The p-adic series has no array form: ``weyl_m_grid`` loops over its
    scalar ``m_hat``, and M(z) = -(I + Mhat(z))^-1 stands in for Mhat.
    """
    if spectral.m_hat_grid is not None:
        return spectral.m_hat_grid(z), spectral.m_hat
    r = np.eye(spectral.n)
    return (sx.weyl_m_grid(spectral, r, z),
            lambda zk: -np.linalg.inv(r + spectral.m_hat(zk)))


ARRAY_Z = np.array([-3.0, -1.0, -1.0 + 1e-6, -0.3, 0.5, 2.0, complex(2.0, -0.0),
                    0.3 + 0.8j, -2.5 - 1.0j, 1e3j, -1.0 + 1e-4j])


@pytest.mark.parametrize("name", ALL)
def test_array_kernel_is_the_scalar_kernel_to_rounding(name):
    spectral, _ = backend(name)
    negative = ARRAY_Z[(ARRAY_Z.imag == 0.0) & (ARRAY_Z.real <= 0.0)].real
    for z in (ARRAY_Z, negative, ARRAY_Z.reshape(1, -1)):
        z = np.asarray(z, dtype=complex)
        got, scalar = array_form(spectral, z)
        assert got.shape == z.shape + (spectral.n, spectral.n)
        for zk, mk in zip(z.ravel().tolist(), got.reshape(-1, spectral.n, spectral.n)):
            want = scalar(zk)
            np.testing.assert_allclose(mk, want, rtol=0.0,
                                       atol=1e-15 * np.abs(want).max(), err_msg=str(zk))


def test_one_dim_kernel_at_one_z_is_its_grid_value_bit_for_bit():
    # one z takes numpy's scalar arithmetic, a grid its array loops; both
    # give the same bits, the signs of zero parts included
    rng = np.random.default_rng([29, 1])
    size = 10.0 ** rng.uniform(-6.0, 8.0, 200)
    z = np.concatenate([size * np.exp(1j * rng.uniform(-np.pi, np.pi, 200)), -size, size,
                        ARRAY_Z, [complex(2.0, -0.0), complex(-2.0, -0.0), -0.25]])
    grid = models._one_dim_m_hat(z)
    for zk, want in zip(z.tolist(), grid):
        for one in (zk, np.complex128(zk), np.array(zk)):
            got = models._one_dim_m_hat(one)
            assert got.shape == (2, 2) and got.tobytes() == want.tobytes(), zk
    for zero in (0.0, 0j, complex(-0.0, -0.0), np.array(0j)):
        with pytest.raises(PoleError):
            models._one_dim_m_hat(zero)


@pytest.mark.parametrize("name", ALL)
def test_m_hat_is_conjugate_symmetric_bit_for_bit(name):
    spectral, _ = backend(name)
    for z in NONREAL:
        up, down = spectral.m_hat(z), spectral.m_hat(z.conjugate())
        assert np.array_equal(down, up.conj().T), z
    z = np.array(NONREAL)
    up, down = array_form(spectral, z)[0], array_form(spectral, z.conj())[0]
    assert np.array_equal(down, up.conj().swapaxes(-2, -1))


@pytest.mark.parametrize("name", ["point d=3", "scaling 1.01", "scaling 1.5",
                                  "scaling 1.99", "scaling 1.3 m_gram"])
def test_m_hat_at_zero_is_finite_above_nu_one(name):
    # Mhat(0) = overlap + E(0), and -C K/2 in closed form
    spectral, e = backend(name)
    want = spectral.overlap + e(0.0)
    assert relative(spectral.m_hat(0.0), want) <= 1e-13
    assert np.array_equal(spectral.m_hat_grid(np.zeros(2))[1], spectral.m_hat(0.0))


@pytest.mark.parametrize("name", ["point d=1", "point d=2", "one-dim"])
def test_m_hat_at_zero_is_a_pole_at_or_below_nu_one(name):
    spectral, _ = backend(name)
    with pytest.raises(PoleError):
        spectral.m_hat(0.0)
    with pytest.raises(PoleError):
        spectral.m_hat_grid(np.array([-1.0, 0.0]))
    with pytest.raises(PoleError):
        sx.weyl_m_grid(spectral, np.zeros((spectral.n, spectral.n)), [0.5j, 0.0])


@pytest.mark.parametrize("name", ["point d=1", "point d=2", "one-dim"])
@pytest.mark.parametrize("z", [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)])
def test_e_oracle_at_zero_is_a_pole_without_warning(name, z):
    _, e = backend(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleError):
            e(z)


@pytest.mark.parametrize("name", CLOSED)
def test_real_positive_z_is_the_upper_boundary_value(name):
    spectral, e = backend(name)
    for x in (0.5, 2.0, 30.0):
        on_axis = spectral.m_hat(x)
        assert np.array_equal(spectral.m_hat(complex(x, -0.0)), on_axis)
        # the E oracle takes the same rim for either zero sign
        for z in (complex(x, 0.0), complex(x, -0.0)):
            via_e = (z + 1.0) * (spectral.overlap + (z + 1.0) * e(z))
            assert relative(via_e, on_axis) <= 1e-12, z
        assert np.array_equal(spectral.m_hat_grid(np.array([x]))[0], on_axis)
        above = spectral.m_hat(complex(x, 1e-9))
        assert relative(on_axis, above) <= 1e-8
        # Mhat is a Nevanlinna function: Im Mhat >= 0 on the upper rim
        assert np.linalg.eigvalsh((on_axis - on_axis.conj().T) / 2j).min() >= 0.0
