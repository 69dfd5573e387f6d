"""``weyl_m`` checks each input once and returns one pass of arithmetic.

For several channels the stored matrix is bit for bit -inv(R + Mhat(z)),
as numpy's LAPACK computes it from the backend's Mhat(z).  For one
channel it is -(1 / a) for the one entry a of R + Mhat(z), numpy's
complex quotient with no LAPACK call (``triplet.negated_reciprocal``),
which ``weyl_m_grid`` shares: the scalar and the grid M(z) agree bit for
bit wherever their Mhat(z) do, and lie within 4 eps of the exact
reciprocal of the rounded a.  The refusals are those of a full check: a
singular R + Mhat(z), by the pole rule of ``refuse_stacked_poles``, and a
backend whose Mhat(z) is not finite or has the wrong shape.
"""

import warnings

import mpmath
import numpy as np
import pytest

import singext as sx
from singext import triplet
from singext.errors import PoleError
from singext.weyl import SpectralModel


def _builds():
    yield "one-dim", sx.build_one_dim_model()
    for d in (1, 2, 3):
        yield f"point d={d}", sx.build_point_interaction(d)
    yield "p-adic 2,3/2", sx.build_padic_model(2, 1.5)
    yield "p-adic 3,3/4", sx.build_padic_model(3, 0.75)
    yield "scaling 3/2", sx.build_scaling_invariant_3d(1.5)
    yield "scaling 1.9, n=2", sx.build_scaling_invariant_3d(1.9, n=2)
    yield "scaling 3/2, m_gram", sx.build_scaling_invariant_3d(1.5, [[1.0, 0.3], [0.3, 0.5]])


BACKENDS = dict(_builds())


def _r(name):
    """The homogeneous R, or -0.4 I where there is none (point d = 2)."""
    spec = BACKENDS[name]
    sol = sx.solve_homogeneous_R(spec.family, spec.gram)
    return getattr(sol, "matrix", -0.4 * np.eye(spec.n))


def _z_points(seed):
    rng = np.random.default_rng(seed)
    real = [float(x) for x in rng.uniform(-20.0, -0.05, 3)] + [
        float(x) for x in rng.uniform(0.05, 20.0, 2)]
    nonreal = [complex(x, y) for x, y in zip(rng.uniform(-20.0, 20.0, 5),
                                             rng.uniform(-5.0, 5.0, 5))]
    return real + nonreal


def _negated_inverse(a):
    """What ``weyl_m`` stores for R + Mhat(z) = a: numpy's -(1 / a) for one
    channel, LAPACK's -inv(a) for several."""
    return -(1.0 / a) if a.shape == (1, 1) else -np.linalg.inv(a)


@pytest.mark.parametrize("name", BACKENDS)
def test_weyl_m_is_numpy_inverse_bit_for_bit(name):
    spectral, r = BACKENDS[name].spectral, _r(name)
    for z in _z_points(sum(map(ord, name))):
        want = _negated_inverse(r + spectral.m_hat(complex(z)))
        got = sx.weyl_m(spectral, r, z).matrix
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (z, got, want)


@pytest.mark.parametrize("name", BACKENDS)
def test_weyl_m_makes_one_inverse_and_no_svd_or_finiteness_pass(name, monkeypatch):
    # the pole rule is certified by the inverse: at these points no
    # R + Mhat(z) is near singular, so no SVD runs, and the finite norm of
    # R + Mhat(z) is its finiteness check; one channel takes a modulus and
    # a quotient, and no inverse at all
    spectral, r = BACKENDS[name].spectral, _r(name)
    calls = []
    for where, fn in ((np.linalg, "inv"), (np.linalg, "svd"), (np, "isfinite")):
        real = getattr(where, fn)
        monkeypatch.setattr(where, fn,
                            lambda *a, fn=fn, real=real, **k: calls.append(fn) or real(*a, **k))
    for z in _z_points(sum(map(ord, name))):
        calls.clear()
        sx.weyl_m(spectral, r, z)
        assert calls == ([] if spectral.n == 1 else ["inv"]), (z, calls)


ONE_CHANNEL = [name for name, spec in BACKENDS.items() if spec.n == 1]


@pytest.mark.parametrize("name", ONE_CHANNEL)
def test_scalar_and_grid_weyl_m_agree_bit_for_bit(name):
    # the looped p-adic backends everywhere; the others wherever their
    # array Mhat(z) rounds as the scalar one does
    spectral, r = BACKENDS[name].spectral, _r(name)
    zs = [z for seed in range(3) for z in _z_points(seed)]
    if spectral.m_hat_grid is not None:
        grid = spectral.m_hat_grid(np.array(zs))
        zs = [z for z, m in zip(zs, grid)
              if np.asarray(spectral.m_hat(z), dtype=complex).tobytes() == m.tobytes()]
        assert len(zs) >= 20
    got = sx.weyl_m_grid(spectral, r, zs)
    for z, m in zip(zs, got):
        assert sx.weyl_m(spectral, r, z).matrix.tobytes() == m.tobytes(), z


EPS = np.finfo(float).eps


@pytest.mark.parametrize("name", ONE_CHANNEL)
def test_one_channel_m_is_within_4_eps_of_the_reciprocal(name):
    # the exact -1 / a of the rounded a = R + Mhat(z), at 40 digits, at
    # real and nonreal z; the grid against its own a
    spectral, r = BACKENDS[name].spectral, _r(name)
    zs = _z_points(1000 + sum(map(ord, name)))
    a_grid = r + (spectral.m_hat_grid(np.array(zs)) if spectral.m_hat_grid is not None
                  else np.array([spectral.m_hat(z) for z in zs]))
    m_grid = sx.weyl_m_grid(spectral, r, zs)
    for z, a, m in zip(zs, a_grid, m_grid):
        for entry, got in (((r + spectral.m_hat(z))[0, 0], sx.weyl_m(spectral, r, z).matrix),
                           (a[0, 0], m)):
            with mpmath.workdps(40):
                want = -1 / mpmath.mpc(entry)
                err = abs(mpmath.mpc(got[0, 0]) - want) / abs(want)
            assert err <= 4 * EPS, (z, float(err) / EPS)


@pytest.mark.parametrize("name", ["scaling 3/2", "one-dim"])
def test_stored_matrix_is_read_only(name):
    ev = sx.weyl_m(BACKENDS[name].spectral, _r(name), -2.0)
    assert not ev.matrix.flags.writeable
    with pytest.raises(ValueError):
        ev.matrix[0, 0] = 1.0


@pytest.mark.parametrize("name", ["scaling 3/2", "p-adic 2,3/2", "one-dim",
                                  "scaling 1.9, n=2"])
def test_singular_r_plus_mhat_is_a_pole(name):
    spectral = BACKENDS[name].spectral
    z = -0.7
    m_hat = spectral.m_hat(complex(z))
    n = spectral.n
    # R + Mhat(z) is zero at n = 1 and diag(0, 1, ...) for n > 1
    r = -m_hat + np.diag([0.0] + [1.0] * (n - 1))
    with pytest.raises(PoleError):
        sx.weyl_m(spectral, r, z)


def _custom(m_hat_of_z, n=1):
    return SpectralModel(n=n, m_hat=m_hat_of_z, overlap=np.eye(n),
                         psi_in_Hminus1=(True,) * n)


def _both_forms(model, r, z):
    """The scalar and the grid M(z) of ``model`` at one z, the grid at
    z and at -2 - 3i."""
    return (lambda: sx.weyl_m(model, r, z).matrix,
            lambda: sx.weyl_m_grid(model, r, [z, complex(-2.0, -3.0)])[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan),
                                 complex(0.0, -np.inf), complex(np.inf, np.nan)])
@pytest.mark.parametrize("z", [-2.0, -1.0, 0.5j])
def test_non_finite_resolvent_data_is_refused(bad, z):
    # not finite at z only, so that the grid refuses one bad point of two
    model = _custom(lambda w: np.array([[bad if w == z else 1.0]], dtype=complex))
    for form in _both_forms(model, [[0.0]], z):
        with pytest.raises(ValueError, match="finite"):
            form()


@pytest.mark.parametrize("shape", [(2, 2), (1, 2), (2,), (1, 1, 1)])
def test_resolvent_data_of_the_wrong_shape_is_refused(shape):
    model = _custom(lambda z: np.ones(shape, dtype=complex))
    with pytest.raises(ValueError, match="dimension"):
        sx.weyl_m(model, [[0.0]], -2.0)


def test_scalar_resolvent_data_is_taken_as_one_by_one():
    model = _custom(lambda z: 1.0 / (3.0 - z))
    want = -np.linalg.inv(np.array([[0.5 + 0.2]], dtype=complex))
    assert sx.weyl_m(model, [[0.5]], -2.0).matrix.tobytes() == want.tobytes()


@pytest.mark.parametrize("size", [0.0, 1e-310, 1e-14 * (1 - EPS), 1e-14,
                                  1e-14 * (1 + EPS), 2e-14])
@pytest.mark.parametrize("phase", [1.0, -1.0, 1j, -1j, complex(0.6, -0.8)])
def test_pole_decisions_are_those_of_refuse_stacked_poles(size, phase):
    # R + Mhat(z) = a of modulus ``size``: refused by the scalar and the
    # grid M(z) exactly where the SVD rule refuses the 1x1 matrix [[a]]
    a = complex(size * phase.real, size * phase.imag)
    model = _custom(lambda z: np.array([[a if z == -0.7 else 1.0]], dtype=complex))
    try:
        triplet.refuse_stacked_poles(np.array([[a]]), "A")
        pole = False
    except PoleError:
        pole = True
    for form in _both_forms(model, [[0.0]], -0.7):
        if pole:
            with pytest.raises(PoleError):
                form()
        else:
            assert form()[0, 0] == -(1.0 / np.complex128(a))


# Near the largest double, where numpy's quotient would overflow: the exact
# -1 / a is 5e-309 (-1 + i), -1e-308 and -1e-308 (to 1e-924), all subnormal
# or at the edge of the normal range
@pytest.mark.parametrize("a", [complex(1e308, 1e308), complex(1e308, 0.0),
                               complex(1e308, 1e-308), complex(-1.7e308, 1.7e308)])
def test_reciprocal_at_the_overflow_edge_is_right_and_silent(a):
    model = _custom(lambda z: np.array([[a]]))
    with mpmath.workdps(40):
        want = -1 / mpmath.mpc(a)
    subnormal = np.finfo(float).smallest_subnormal
    for form in _both_forms(model, [[0.0]], 1j):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = form()[0, 0]
        for part, exact in ((got.real, want.real), (got.imag, want.imag)):
            err = float(abs(mpmath.mpf(part) - exact))
            assert err <= max(4 * EPS * float(abs(exact)), subnormal), (got, want)
