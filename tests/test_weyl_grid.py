"""``weyl_m_grid``: M(z) over an array of z, against scalar ``weyl_m``.

The array forms of Mhat(z) round in another order than the scalar
kernels (numpy's vector loops, a stacked inverse), so the grid agrees
with ``weyl_m`` to rounding, not bit for bit; the p-adic model has no
array form, and the grid loops over its scalar ``m_hat`` and agrees
exactly.  No eigenvalue search uses the grid: the scalar scan kept here
is the tests' reference for the search's roots.
"""

import warnings

import numpy as np
import pytest

import singext as sx
from singext import models, weyl
from singext.errors import ConvergenceError, PoleError
from singext.models import TAYLOR_RADIUS
from singext.symmetry import DEFAULT_TOL
from singext.weyl import SpectralModel

SEEDED_GRAM = np.array([[1.2, 0.3, -0.1], [0.3, 0.9, 0.2], [-0.1, 0.2, 0.7]])

MODELS = {
    "one_dim": sx.build_one_dim_model,
    "point_d1": lambda: sx.build_point_interaction(1),
    "point_d2": lambda: sx.build_point_interaction(2),
    "point_d3": lambda: sx.build_point_interaction(3),
    "padic_2_1.5": lambda: sx.build_padic_model(2, 1.5),
    "padic_3_0.75": lambda: sx.build_padic_model(3, 0.75),
    "scaling_n1": lambda: sx.build_scaling_invariant_3d(1.5),
    "scaling_n2": lambda: sx.build_scaling_invariant_3d(1.5, n=2),
    "scaling_n3": lambda: sx.build_scaling_invariant_3d(1.5, SEEDED_GRAM),
    "scaling_1.01": lambda: sx.build_scaling_invariant_3d(1.01),
    "scaling_1.99": lambda: sx.build_scaling_invariant_3d(1.99),
}

EDGE = np.exp(1j * np.pi / 3)
Z_POINTS = {
    "negative axis": [-3.0, -2.325, -1.65, -0.975, -0.3],
    "Taylor disc edge": [-1.0 + f * TAYLOR_RADIUS * u for u in (1.0, -1.0, EDGE)
                         for f in (0.999, 1.001)],
    "nonreal": [-2.5 + 0.3j, -0.5 + 1.0j, 0.5 + 0.6j, 1.5 + 2.5j, 2.5 - 1.5j],
    "real z > 0": [0.7, 2.0, complex(2.0, -0.0)],  # both give the upper rim
}


def _model_and_r(name):
    spec = MODELS[name]()
    sol = sx.solve_homogeneous_R(spec.family, spec.gram)
    r = getattr(sol, "matrix", None)  # point d = 2 has no homogeneous R
    return spec, np.zeros((spec.n, spec.n)) if r is None else r


@pytest.fixture(scope="module", params=sorted(MODELS))
def model_and_r(request):
    return _model_and_r(request.param)


@pytest.mark.parametrize("where", sorted(Z_POINTS))
def test_grid_agrees_with_scalar_weyl_m(model_and_r, where):
    spec, r = model_and_r
    z = np.array(Z_POINTS[where], dtype=complex)
    grid = sx.weyl_m_grid(spec.spectral, r, z)
    assert grid.shape == z.shape + (spec.n, spec.n)
    for zk, got in zip(z, grid):
        want = sx.weyl_m(spec.spectral, r, zk).matrix
        # Element by element, relative to the largest entry of M(z).
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-15 * np.abs(want).max(), err_msg=str(zk))


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.01, 1.3, 1.5, 1.99])
def test_radial_grid_matches_the_scalar_kernel(nu):
    # Mhat itself, next to z = -1 too, where it vanishes; the real and the
    # complex route of the array kernel both.
    points = [p for points in Z_POINTS.values() for p in points] + [
        -1.0, -1.0 + 1e-6, -1.0 + 1e-4j, -1.0 - 1e-3j] + ([0.0] if nu > 1.0 else [])
    negative = [p for p in points if complex(p).imag == 0.0 and complex(p).real <= 0.0]
    for z in (np.array(points, dtype=complex), np.array(negative, dtype=complex)):
        got = models.radial_m_hat_grid(nu, z)
        want = np.array([models.radial_m_hat(nu, zk) for zk in z])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("nu", [0.5, 1.0])
def test_radial_grid_diverges_at_zero_below_nu_one(nu):
    with pytest.raises(PoleError):
        models.radial_m_hat_grid(nu, np.array([-1.0, 0.0]))


def test_padic_grid_sums_the_scalar_window_exactly():
    spec, r = _model_and_r("padic_2_1.5")
    z = np.concatenate([np.linspace(-3.0, -0.3, 50), [0.5j, 2.0, 10.0, -50.0]])
    want = np.array([sx.weyl_m(spec.spectral, r, zk).matrix for zk in z])
    assert np.array_equal(sx.weyl_m_grid(spec.spectral, r, z), want)


@pytest.mark.parametrize("shape", [(), (4,), (2, 3), (0,)])
def test_grid_shape_follows_z(shape):
    spec, r = _model_and_r("scaling_n2")
    z = np.linspace(-2.0, 1.0, int(np.prod(shape))).reshape(shape) + 0.5j
    grid = sx.weyl_m_grid(spec.spectral, r, z)
    assert grid.shape == shape + (2, 2)
    flat = sx.weyl_m_grid(spec.spectral, r, z.ravel())
    assert np.array_equal(grid.reshape(flat.shape), flat)


def test_grid_accepts_a_python_scalar_and_a_list():
    spec, r = _model_and_r("point_d3")
    assert sx.weyl_m_grid(spec.spectral, r, -1.0).shape == (1, 1)
    assert sx.weyl_m_grid(spec.spectral, r, [-1.0, 0.5j]).shape == (2, 1, 1)


def test_grid_pole_raises():
    spec, _ = _model_and_r("scaling_n2")
    r = -spec.spectral.m_hat(-2.0).real  # R + Mhat(-2) = 0
    with pytest.raises(PoleError):
        sx.weyl_m(spec.spectral, r, -2.0)
    with pytest.raises(PoleError):
        sx.weyl_m_grid(spec.spectral, r, [-3.0, -2.0, 0.5j])


# ---------------------------------------------------------------------------
# One channel: the inverse is the reciprocal of the one entry
# ---------------------------------------------------------------------------

ONE_CHANNEL = ["point_d1", "point_d2", "point_d3", "scaling_n1", "padic_2_1.5",
               "padic_3_0.75"]


def _lapack_weyl_grid(spec, r, z):
    """-(R + Mhat(z))^-1 by numpy's stacked LAPACK inverse, with Mhat from
    the array form, or from a loop over the scalar ``m_hat`` where the
    backend has none (p-adic)."""
    spectral = spec.spectral
    if spectral.m_hat_grid is not None:
        return -np.linalg.inv(r + spectral.m_hat_grid(z))
    m_hat = [spectral.m_hat(zk) for zk in z.ravel().tolist()]
    return -np.linalg.inv(r + np.reshape(m_hat, z.shape + (1, 1)))


@pytest.mark.parametrize("name", ONE_CHANNEL)
def test_one_channel_grid_is_the_lapack_inverse_bit_for_bit_on_the_negative_axis(name):
    spec, r = _model_and_r(name)
    x = np.linspace(-3.0, -0.3, 400)  # misses z = -1, where Mhat = 0
    got = sx.weyl_m_grid(spec.spectral, r, x)
    want = _lapack_weyl_grid(spec, r, x)
    assert got.shape == want.shape == (400, 1, 1)
    # the bits of both parts, the signs of zeros included
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name", ONE_CHANNEL)
def test_one_channel_grid_is_the_lapack_inverse_to_rounding_at_complex_z(name):
    spec, r = _model_and_r(name)
    rng = np.random.default_rng(13)
    z = rng.uniform(-4.0, 4.0, 200) + 1j * rng.uniform(-4.0, 4.0, 200)
    got = sx.weyl_m_grid(spec.spectral, r, z)
    want = _lapack_weyl_grid(spec, r, z)
    np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_one_channel_grid_shape_follows_z(shape):
    spec, r = _model_and_r("point_d3")
    z = np.linspace(-2.0, 1.0, int(np.prod(shape))).reshape(shape) + 0.5j
    grid = sx.weyl_m_grid(spec.spectral, r, z)
    assert grid.shape == shape + (1, 1)
    np.testing.assert_allclose(grid.reshape(-1), _lapack_weyl_grid(spec, r, z).reshape(-1),
                               rtol=4 * np.finfo(float).eps, atol=0.0)


def test_one_channel_grid_pole_raises():
    spec, _ = _model_and_r("point_d3")
    r = -spec.spectral.m_hat(-2.0).real  # R + Mhat(-2) = 0
    with pytest.raises(PoleError):
        sx.weyl_m(spec.spectral, r, -2.0)
    with pytest.raises(PoleError):
        sx.weyl_m_grid(spec.spectral, r, [-3.0, -2.0, 0.5j])


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_grid_padic_z_zero_does_not_converge(alpha):
    spec = sx.build_padic_model(2, alpha)
    with pytest.raises(ConvergenceError):
        sx.weyl_m(spec.spectral, [[1.0]], 0.0)
    with pytest.raises(ConvergenceError):
        sx.weyl_m_grid(spec.spectral, [[1.0]], [-1.0, 0.0])


@pytest.mark.parametrize("bad", [complex(float("nan"), 0.0), complex(0.5, float("inf")),
                                 float("-inf")])
def test_grid_refuses_z_that_is_not_finite_before_the_backend(bad):
    calls = []
    model = SpectralModel(1, lambda w: calls.append(w) or np.eye(1), np.eye(1), (True,),
                          m_hat_grid=lambda w: calls.append(w) or np.ones(w.shape + (1, 1)))
    with pytest.raises(ValueError, match="z must be finite"):
        sx.weyl_m_grid(model, [[0.0]], [-1.0, bad])
    assert calls == []


def _scalar_only(e):
    return SpectralModel(2, e, np.diag([1.0, 2.0]), (True, False))


def test_grid_loops_over_a_scalar_only_backend():
    model = _scalar_only(lambda z: np.diag([1.0 / (1.0 - z), 2.0 / (3.0 - z)]))
    r = np.array([[0.5, 0.1], [0.1, -0.2]])
    z = np.array([[-2.0, 0.5j], [1.0 + 1.0j, -0.7]])
    grid = sx.weyl_m_grid(model, r, z)
    assert grid.shape == (2, 2, 2, 2)
    for zk, got in zip(z.ravel(), grid.reshape(-1, 2, 2)):
        want = sx.weyl_m(model, r, zk).matrix
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15 * np.abs(want).max())


def test_grid_refuses_a_resolvent_gram_of_the_wrong_shape():
    # the backend's Mhat(z), 3x3 on a two-channel model
    with pytest.raises(ValueError, match="wrong dimension"):
        sx.weyl_m_grid(_scalar_only(lambda z: np.eye(3)), np.zeros((2, 2)), [-1.0, -2.0])


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_grid_refuses_a_resolvent_gram_that_is_not_finite_without_warning(value):
    model = _scalar_only(lambda z: np.diag([1.0, value if z == -2.0 else 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            sx.weyl_m_grid(model, np.zeros((2, 2)), [-1.0, -2.0])


# ---------------------------------------------------------------------------
# The eigenvalue search, against a scan
# ---------------------------------------------------------------------------

def _scalar_scan_search(model, reg, coupling, search_interval, tol=DEFAULT_TOL, num=2000):
    """The tests' scan reference for the search: sign changes of
    det(B - M(x)) at ``num`` points, one scalar ``weyl_m`` each, bisected to
    ``tol``.  It misses roots of even multiplicity and drops a bracket
    whose midpoint does not reduce |det| (a pole crossing)."""
    b = np.asarray(coupling, dtype=complex)
    lo, hi = search_interval

    def det_val(x):
        return complex(np.linalg.det(b - sx.weyl_m(model, reg, x).matrix)).real

    xs = np.linspace(lo, hi, int(num))
    vals = [det_val(x) for x in xs]
    roots = []
    for k in range(len(xs) - 1):
        f_a, f_b = vals[k], vals[k + 1]
        if f_a == 0.0:
            roots.append(float(xs[k]))
            continue
        if f_a * f_b >= 0.0:
            continue
        a, bb = float(xs[k]), float(xs[k + 1])
        fa = f_a
        while bb - a > tol:
            mid = 0.5 * (a + bb)
            fm = det_val(mid)
            if fm == 0.0:
                a = bb = mid
                break
            if fa * fm < 0:
                bb = mid
            else:
                a, fa = mid, fm
        x_star = 0.5 * (a + bb)
        if abs(det_val(x_star)) <= max(abs(f_a), abs(f_b)):
            roots.append(x_star)
    if vals and vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


SEARCH_INTERVAL = (-3.0, -0.3)
# The model kinds of the benchmark's spectrum workload, with planted roots:
# B = M(x0) puts an eigenvalue at x0; two channels get one root each.
PLANTED = {
    "point_d1": [-1.37], "point_d3": [-0.91], "padic_2_1.5": [-2.13],
    "padic_3_0.75": [-1.62], "scaling_n1": [-0.64], "scaling_n3": [-2.41],
    "one_dim": [-2.2, -0.8], "scaling_n2": [-1.9, -1.1],
}


def _planted_coupling(spec, r, x0):
    m = [sx.weyl_m(spec.spectral, r, x).matrix.real for x in x0]
    return (m[0] + m[0].T) / 2 if len(x0) == 1 else np.diag([m[0][0, 0], m[1][1, 1]])


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_batched_search_matches_the_scalar_scan(name, monkeypatch):
    # No planted search scans.  Several channels find the planted roots
    # exactly, with two scalar weyl_m calls for the count.  One channel,
    # with or without a negative-axis polynomial, brackets the one root
    # of 1 + B (R + Mhat(x)) with m_hat alone.
    spec, r = _model_and_r(name)
    x0 = PLANTED[name]
    b = _planted_coupling(spec, r, x0)
    calls, grids = [], []
    scalar = weyl.weyl_m
    monkeypatch.setattr(weyl, "weyl_m", lambda *a: calls.append(a[2]) or scalar(*a))
    monkeypatch.setattr(weyl, "weyl_m_grid", lambda *a: grids.append(a))
    got = sx.find_negative_eigenvalues(spec.spectral, r, b, SEARCH_INTERVAL)
    assert len(got) == len(x0)
    assert grids == []
    if spec.n == 1:
        np.testing.assert_allclose(got, x0, rtol=1e-12, atol=0.0)
        assert calls == []
    else:
        np.testing.assert_allclose(got, x0, rtol=0.0, atol=1e-12)
        assert len(calls) <= 2


@pytest.mark.parametrize("name", ["one_dim", "scaling_n2", "scaling_n3"])
def test_pole_free_exact_search_makes_one_eigenproblem(name, monkeypatch):
    # several channels at the homogeneous R, which puts no pole of M on
    # the negative axis, so the roots alone match the count: two scalar
    # weyl_m calls and one companion eigenproblem, and the pole
    # polynomial stays unsolved.  One channel brackets instead
    # (test_one_channel_search).
    spec, r = _model_and_r(name)
    assert spec.n > 1 and spec.spectral.negative_axis is not None
    b = _planted_coupling(spec, r, PLANTED[name])
    calls = {"weyl_m": 0, "weyl_m_grid": 0, "eigvals": 0}

    def counted(owner, attr, key):
        f = getattr(owner, attr)

        def call(*a, **k):
            calls[key] += 1
            return f(*a, **k)
        monkeypatch.setattr(owner, attr, call)

    counted(weyl, "weyl_m", "weyl_m")
    counted(weyl, "weyl_m_grid", "weyl_m_grid")
    counted(np.linalg, "eigvals", "eigvals")
    sx.find_negative_eigenvalues(spec.spectral, r, b, SEARCH_INTERVAL)
    assert calls == {"weyl_m": 2, "weyl_m_grid": 0, "eigvals": 1}
