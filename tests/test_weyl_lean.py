"""``weyl_m`` checks each input once and returns LAPACK's inverse unchanged.

On every backend the stored matrix is bit for bit -inv(R + Mhat(z)),
as numpy computes it from the backend's Mhat(z), and the refusals are
those of a full check: a singular R + Mhat(z), and a backend whose
Mhat(z) is not finite or has the wrong shape.
"""

import numpy as np
import pytest

import singext as sx
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


@pytest.mark.parametrize("name", BACKENDS)
def test_weyl_m_is_numpy_inverse_bit_for_bit(name):
    spectral, r = BACKENDS[name].spectral, _r(name)
    for z in _z_points(sum(map(ord, name))):
        want = -np.linalg.inv(r + spectral.m_hat(complex(z)))
        got = sx.weyl_m(spectral, r, z).matrix
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (z, got, want)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("z", [-2.0, -1.0, 0.5j])
def test_non_finite_resolvent_data_is_refused(bad, z):
    model = _custom(lambda z: np.array([[bad]]))
    with pytest.raises(ValueError, match="finite"):
        sx.weyl_m(model, [[0.0]], z)


@pytest.mark.parametrize("shape", [(2, 2), (1, 2), (2,), (1, 1, 1)])
def test_resolvent_data_of_the_wrong_shape_is_refused(shape):
    model = _custom(lambda z: np.ones(shape, dtype=complex))
    with pytest.raises(ValueError, match="dimension"):
        sx.weyl_m(model, [[0.0]], -2.0)


def test_scalar_resolvent_data_is_taken_as_one_by_one():
    model = _custom(lambda z: 1.0 / (3.0 - z))
    want = -np.linalg.inv(np.array([[0.5 + 0.2]], dtype=complex))
    assert sx.weyl_m(model, [[0.5]], -2.0).matrix.tobytes() == want.tobytes()
