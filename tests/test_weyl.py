import numpy as np
import pytest

import singext as sx
from singext.errors import DimensionMismatchError, PoleError
from singext.weyl import SpectralModel, hermitian_imag_min_eig

LAMBDA0 = 2.0


def point_mass_e(z):
    """E(z) of a single unit point mass at LAMBDA0."""
    return 1.0 / (LAMBDA0 - z)


@pytest.fixture(scope="module")
def point_mass():
    """Synthetic rank-one model: a single point mass at LAMBDA0, unit norm,
    with Mhat(z) = (z+1)(lambda0+1)/(lambda0 - z) in closed form."""
    return SpectralModel(
        n=1,
        m_hat=lambda z: np.array([[(z + 1) * (LAMBDA0 + 1) / (LAMBDA0 - z)]]),
        overlap=np.eye(1),
        psi_in_Hminus1=(True,),
    )


def test_m_hat_point_mass_formula(point_mass):
    # expanding (z+1)(overlap + (z+1)E(z)) by hand: (z+1)(1 + (z+1)/(lambda0 - z))
    for z in (0.3 + 0.7j, -2.5, 1.0 - 0.4j):
        expected = (z + 1) * (1 + (z + 1) * point_mass_e(z))
        got = point_mass.m_hat(z)[0, 0]
        assert got == pytest.approx(expected, rel=1e-14)


def test_m_hat_vanishes_at_minus_one(point_mass, scaling, one_dim, point_models, padic):
    assert point_mass.m_hat(-1.0)[0, 0] == 0.0
    for spec in (scaling, one_dim, point_models[1], point_models[2], point_models[3], padic):
        assert np.array_equal(spec.spectral.m_hat(-1.0), np.zeros((spec.n, spec.n)))


def test_m_hat_conjugate_symmetry(point_mass, scaling, one_dim, point_models, padic):
    rng = np.random.default_rng(3)
    for spectral in (point_mass, scaling.spectral, one_dim.spectral,
                     point_models[2].spectral, padic.spectral):
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            up = spectral.m_hat(z)
            down = spectral.m_hat(np.conj(z))
            np.testing.assert_allclose(down, up.conj().T, atol=1e-13)


def test_weyl_m_matches_padic_series(padic, padic_r):
    # the closed series form of the p-adic Weyl function against the
    # resolvent-data route, on the negative axis
    for x in (-0.5, -1.0, -5.0):
        ev = sx.weyl_m(padic.spectral, padic_r, x)
        assert ev.closed_form_residual <= 1e-10
        ref = padic.spectral.closed_form_M(x)[0, 0]
        assert ev.matrix[0, 0] == pytest.approx(ref, rel=1e-10)


def test_weyl_m_one_dim_matches_hand_moebius_algebra(one_dim):
    # carrying (z+1)(overlap + (z+1)E(z)) through the fractional transform
    # by hand collapses, with u = sqrt(-z), to Mhat = diag((1-u)/(2u), (1-u)/2)
    # and so M = diag(-2u, 2/u): the textbook Weyl functions of the two
    # one-sided-mean channels
    r = sx.solve_homogeneous_R(one_dim.family, one_dim.gram).matrix
    for z in (-2.0, 0.3 + 0.8j, -0.4 + 0.1j, 1.5 - 2.0j):
        u = np.sqrt(-complex(z))
        m = sx.weyl_m(one_dim.spectral, r, z).matrix
        assert m[0, 0] == pytest.approx(-2 * u, rel=1e-12)
        assert m[1, 1] == pytest.approx(2 / u, rel=1e-12)
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0


def test_weyl_m_point_interactions_match_hand_moebius_algebra(point_models,
                                                              point_mass):
    # the same collapse gives M = -2 sqrt(-z) for d = 1 (r = 1/2) and
    # M = 4 pi / sqrt(-z) for d = 3 (r = -1/(4 pi))
    for d, formula in ((1, lambda u: -2 * u), (3, lambda u: 4 * np.pi / u)):
        spec = point_models[d]
        r = sx.solve_homogeneous_R(spec.family, spec.gram).matrix
        for z in (-2.0, 0.3 + 0.8j):
            u = np.sqrt(-complex(z))
            got = sx.weyl_m(spec.spectral, r, z).matrix[0, 0]
            assert got == pytest.approx(formula(u), rel=1e-10)
    # with R = 0, M = -Mhat^-1, and for the point mass by hand
    # Mhat(z) = (z+1)(1 + (z+1)/(lambda0 - z))
    for z in (0.3 + 0.7j, -2.5, 1.0 - 0.4j):
        expected = -1 / ((z + 1) * (1 + (z + 1) / (LAMBDA0 - z)))
        got = sx.weyl_m(point_mass, np.zeros((1, 1)), z).matrix[0, 0]
        assert got == pytest.approx(expected, rel=1e-14)


def test_weyl_m_pole_raises(point_mass):
    # Mhat(0) = 1.5 for the point mass, so R = -1.5 is singular there
    with pytest.raises(PoleError):
        sx.weyl_m(point_mass, np.array([[-1.5]]), 0.0)


def test_weyl_m_large_r_limit(padic, point_mass, scaling, scaling_r):
    big = np.array([[1e8]])
    ev = sx.weyl_m(padic.spectral, big, 0.5j)
    assert ev.matrix[0, 0] == pytest.approx(-1e-8, rel=1e-6)
    # Mhat vanishes at -1, so there M = -R^-1 for every R, not only large R
    for spectral, r in ((point_mass, np.array([[0.7]])),
                        (scaling.spectral, scaling_r)):
        np.testing.assert_array_equal(sx.weyl_m(spectral, r, -1.0).matrix,
                                      -np.linalg.inv(r))


def test_weyl_homogeneity_closed_form(padic):
    closed = padic.spectral.closed_form_M
    rng = np.random.default_rng(5)
    for _ in range(5):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        for t in (2.0, 4.0, 8.0):
            assert sx.check_weyl_homogeneity(closed, padic.family, z, t) <= 1e-8


def test_weyl_homogeneity_trivial_at_unit_sample(padic):
    closed = padic.spectral.closed_form_M
    assert sx.check_weyl_homogeneity(closed, padic.family, 0.4 + 1.1j, 1.0) == 0.0


def test_weyl_homogeneity_broken_by_perturbed_r(padic, padic_r):
    perturbed = lambda z: sx.weyl_m(padic.spectral, 1.01 * padic_r, z).matrix
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        for t in (2.0, 4.0, 8.0):
            worst = max(worst,
                        sx.check_weyl_homogeneity(perturbed, padic.family, z, t))
    assert worst > 1e-2


def test_weyl_homogeneity_through_resolvent_route(one_dim, scaling, scaling_r,
                                                  point_models):
    # the identity p(t) M(z) = Xi(t) M(p(t) z) Xi(t) must hold for every
    # model whose R solves the homogeneity system, including the parity
    # sample t = 0 of the zero-range pair
    cases = [(one_dim, sx.solve_homogeneous_R(one_dim.family, one_dim.gram).matrix),
             (scaling, scaling_r),
             (point_models[3],
              sx.solve_homogeneous_R(point_models[3].family,
                                     point_models[3].gram).matrix)]
    for spec, r in cases:
        weyl_fn = lambda z: sx.weyl_m(spec.spectral, r, z).matrix
        for z in (0.3 + 0.8j, -1.5 + 0.2j):
            for t in (0.0, 0.5, 2.0, 8.0):
                if t not in spec.family.sample_points:
                    continue
                assert sx.check_weyl_homogeneity(weyl_fn, spec.family,
                                                 z, t) <= 1e-9


def test_weyl_conjugate_symmetry_and_herglotz(padic, padic_r, scaling, scaling_r,
                                              point_mass):
    rng = np.random.default_rng(8)
    for spectral, r in ((padic.spectral, padic_r), (scaling.spectral, scaling_r),
                        (point_mass, np.zeros((1, 1)))):
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            m_up = sx.weyl_m(spectral, r, z).matrix
            m_down = sx.weyl_m(spectral, r, np.conj(z)).matrix
            np.testing.assert_allclose(m_down, m_up.conj().T, atol=1e-12)
            assert hermitian_imag_min_eig(m_up) >= -1e-12


def test_find_negative_eigenvalue_constructed_root(padic, padic_r):
    b = sx.weyl_m(padic.spectral, padic_r, -1.0).matrix.real
    roots = sx.find_negative_eigenvalues(padic.spectral, padic_r, b,
                                         (-3.0, -0.3), tol=1e-9, num=200)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(-1.0, abs=1e-8)


def test_find_negative_eigenvalues_zero_coupling(padic, padic_r):
    # M is strictly negative on the gap, so B = 0 never meets it
    xs = np.linspace(-3.0, -0.3, 50)
    values = [sx.weyl_m(padic.spectral, padic_r, x).matrix[0, 0].real for x in xs]
    assert all(v < 0 for v in values)
    roots = sx.find_negative_eigenvalues(padic.spectral, padic_r,
                                         np.zeros((1, 1)), (-3.0, -0.3), num=200)
    assert roots == []


def test_find_one_root_per_monotone_branch(padic, padic_r):
    m_at = lambda x: sx.weyl_m(padic.spectral, padic_r, x).matrix[0, 0].real
    b = 0.5 * (m_at(-2.0) + m_at(-1.0))
    roots = sx.find_negative_eigenvalues(padic.spectral, padic_r, [[b]],
                                         (-4.0, -0.25), num=300)
    assert len(roots) == 1
    assert -2.0 < roots[0] < -1.0


def test_find_requires_hermitian_coupling(padic, padic_r):
    with pytest.raises(ValueError):
        sx.find_negative_eigenvalues(padic.spectral, padic_r,
                                     [[1.0j]], (-3.0, -0.3))


@pytest.mark.parametrize("coupling", [[[0.3]], np.full((3, 3), 0.3)])
def test_find_refuses_a_coupling_of_the_wrong_size(coupling):
    # a 1x1 B on a two-channel model used to broadcast against M(x) and
    # return a root near -0.694
    model = sx.build_scaling_invariant_3d(1.5, n=2)
    r = sx.solve_homogeneous_R(model.family, model.gram).matrix
    with pytest.raises(DimensionMismatchError, match="n=2"):
        sx.find_negative_eigenvalues(model.spectral, r, coupling, (-3.0, -0.1))


def test_find_requires_negative_interval(padic, padic_r):
    with pytest.raises(ValueError):
        sx.find_negative_eigenvalues(padic.spectral, padic_r,
                                     [[0.0]], (-1.0, 1.0))


@pytest.mark.parametrize("num", [0, 1])
def test_find_requires_two_grid_points(padic, padic_r, num):
    # one grid point has no bracket; it printed [] where num = 2 finds -0.98
    with pytest.raises(ValueError, match="num >= 2"):
        sx.find_negative_eigenvalues(padic.spectral, padic_r, [[-0.57]],
                                     (-3.0, -0.3), num=num)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10])
def test_find_requires_finite_positive_tol(padic, padic_r, tol):
    # a NaN tol skipped the bisection and returned the bracket midpoint
    with pytest.raises(ValueError, match="finite tol above 0"):
        sx.find_negative_eigenvalues(padic.spectral, padic_r, [[-0.57]],
                                     (-3.0, -0.3), tol=tol, num=10)


def test_krein_correction_zero_coupling(padic, padic_r):
    m = sx.weyl_m(padic.spectral, padic_r, 0.7j).matrix
    corr = sx.krein_correction(m, np.zeros((1, 1)))
    assert corr[0, 0] == pytest.approx(-1.0 / m[0, 0], rel=1e-13)


def test_krein_correction_large_coupling_vanishes(padic, padic_r):
    m = sx.weyl_m(padic.spectral, padic_r, 0.7j).matrix
    corr = sx.krein_correction(m, np.array([[1e9]]))
    assert abs(corr[0, 0]) <= 2e-9


def test_krein_correction_blows_up_near_eigenvalue(padic, padic_r):
    b = sx.weyl_m(padic.spectral, padic_r, -1.0).matrix.real
    norms = []
    for eps in (1e-2, 1e-4, 1e-6):
        m = sx.weyl_m(padic.spectral, padic_r, -1.0 + eps).matrix
        norms.append(np.linalg.norm(sx.krein_correction(m, b)))
    assert norms[0] < norms[1] < norms[2]
    assert norms[2] > 1e4


def test_krein_correction_singular_raises(padic, padic_r):
    m = sx.weyl_m(padic.spectral, padic_r, 0.7j).matrix
    with pytest.raises(PoleError):
        sx.krein_correction(m, m)


def test_spectral_model_validates_overlap():
    with pytest.raises(ValueError):
        SpectralModel(1, lambda z: np.eye(1), np.array([[-1.0]]), (True,))
    with pytest.raises(ValueError):
        SpectralModel(1, lambda z: np.eye(1), np.array([[0.0, 1.0], [0.0, 0.0]]),
                      (True,))


@pytest.mark.parametrize("z", [complex(float("nan"), 0.0), complex(0.5, float("inf")),
                               float("-inf")])
def test_weyl_m_refuses_z_that_is_not_finite_before_the_backend(z):
    calls = []
    model = SpectralModel(1, lambda w: calls.append(w) or np.eye(1), np.eye(1), (True,))
    with pytest.raises(ValueError, match="z must be finite"):
        sx.weyl_m(model, [[0.0]], z)
    assert calls == []
