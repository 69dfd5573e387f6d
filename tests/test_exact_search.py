"""The exact eigenvalue search of several channels.

On the negative axis the point (d = 1, 3), scaling and one-dim backends
give Mhat(x) as a polynomial in u = (-x)^q divided by u^d
(``SpectralModel.negative_axis``).  For several channels
``find_negative_eigenvalues`` takes the roots of det(B - M(x)) from one
small eigenproblem and certifies their number by the inertia of B - M at
the ends of the interval, less the poles of M between them.  One channel
brackets its one root instead, with or without the datum
(``test_one_channel_search``); the one-channel models stay in the sweeps
here, which hold every search to the same answers.  The scalar scan of
``test_weyl_grid`` stays the oracle: the two agree wherever the scan can
see a root, and the exact route finds more only at roots of even
multiplicity.
"""

import dataclasses

import numpy as np
import pytest

import singext as sx
from singext import models, weyl
from singext.errors import ConvergenceError
from singext.symmetry import DEFAULT_TOL
from singext.weyl import NegativeAxisPolynomial
from test_weyl_grid import _scalar_scan_search

NON_ORTHONORMAL = np.array([[1.2, 0.3, -0.1], [0.3, 0.9, 0.2], [-0.1, 0.2, 0.7]])

MODELS = {
    "point_d1": lambda: sx.build_point_interaction(1),
    "point_d3": lambda: sx.build_point_interaction(3),
    **{f"scaling_{a}_n{n}": (lambda a=a, n=n: sx.build_scaling_invariant_3d(a, n=n))
       for a in (1.3, 1.5, 1.9) for n in (1, 2)},
    **{f"scaling_{a}_gram3": (lambda a=a: sx.build_scaling_invariant_3d(a, NON_ORTHONORMAL))
       for a in (1.3, 1.5, 1.9)},
    "one_dim": sx.build_one_dim_model,
}
INTERVAL = (-3.0, -0.1)


def _datum_m_hat(datum: NegativeAxisPolynomial, x: np.ndarray) -> np.ndarray:
    u = (-x) ** datum.q
    powers = u[:, None] ** np.arange(len(datum.coeffs))
    return np.tensordot(powers, datum.coeffs, axes=1) / (u ** datum.d)[:, None, None]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_datum_reproduces_m_hat_on_the_negative_axis(name):
    spectral = MODELS[name]().spectral
    x = -np.logspace(-4, 4, 200)
    want = spectral.m_hat_grid(x)
    got = _datum_m_hat(spectral.negative_axis, x)
    # relative to the largest entry at each x
    scale = np.abs(want).max(axis=(1, 2))[:, None, None]
    assert (np.abs(got - want) <= 1e-13 * scale).all()


@pytest.mark.parametrize("build", [lambda: sx.build_point_interaction(2),
                                   lambda: sx.build_padic_model(2, 1.5),
                                   lambda: sx.build_padic_model(3, 0.75)],
                         ids=["point_d2", "padic_2_1.5", "padic_3_0.75"])
def test_logarithm_and_series_backends_carry_no_datum(build):
    assert build().spectral.negative_axis is None


def _search(spec, r, b, monkeypatch):
    """The search's roots; it must make no ``weyl_m_grid`` call."""
    grids = []
    monkeypatch.setattr(weyl, "weyl_m_grid", lambda *a: grids.append(a))
    roots = sx.find_negative_eigenvalues(spec.spectral, r, b, INTERVAL)
    assert grids == []
    return roots


def _seeded_hermitian(rng, n, spec, r):
    """A Hermitian B inside the range of M over the interval, so that
    det(B - M(x)) has roots there."""
    m_lo = sx.weyl_m(spec.spectral, r, INTERVAL[0]).matrix
    m_hi = sx.weyl_m(spec.spectral, r, INTERVAL[1]).matrix
    a = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if n > 1 else 0.0)
    spread = np.abs(m_hi - m_lo).max()
    return (m_lo + m_hi) / 2 + 0.5 * spread * (a + a.conj().T) / 2


def _multiplicity(spec, r, b, x):
    """Eigenvalues of B - M(x) that vanish to within 1e-7 of its scale."""
    eigs = np.linalg.eigvalsh(b - sx.weyl_m(spec.spectral, r, x).matrix)
    return int((np.abs(eigs) <= 1e-7 * max(1.0, np.abs(eigs).max())).sum())


@pytest.mark.parametrize("shifted", [False, True], ids=["homogeneous R", "shifted R"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_exact_route_agrees_with_the_scan(name, shifted, monkeypatch):
    spec = MODELS[name]()
    n = spec.n
    r = sx.solve_homogeneous_R(spec.family, spec.gram).matrix
    rng = np.random.default_rng([15, len(name), n, int(shifted)])
    if shifted:
        s = rng.normal(size=(n, n))
        r = r + 0.3 * (s + s.T) / 2
    for _ in range(6):
        b = _seeded_hermitian(rng, n, spec, r)
        got = _search(spec, r, b, monkeypatch)
        want = _scalar_scan_search(spec.spectral, r, b, INTERVAL)
        assert got == sorted(got)
        for x in want:
            assert min(abs(np.array(got) - x)) <= DEFAULT_TOL, (x, got)
        for x in got:
            if min(abs(np.array(want) - x), default=np.inf) > DEFAULT_TOL:
                assert _multiplicity(spec, r, b, x) % 2 == 0, (x, want)


def test_broken_datum_on_two_channels_raises_convergence_error(monkeypatch):
    spec = sx.build_scaling_invariant_3d(1.5, n=2)
    r = sx.solve_homogeneous_R(spec.family, spec.gram).matrix
    b = np.diag([sx.weyl_m(spec.spectral, r, x).matrix[k, k].real
                 for k, x in enumerate((-1.9, -1.1))])
    right = models.radial_negative_axis

    def broken(nu, prefactor):  # the polynomial of a model at another exponent
        datum = right(nu, prefactor)
        return NegativeAxisPolynomial(0.5 * datum.q, datum.d, datum.coeffs)

    monkeypatch.setattr(models, "radial_negative_axis", broken)
    spec = sx.build_scaling_invariant_3d(1.5, n=2)
    # the broken polynomial's roots disagree with the inertia count
    with pytest.raises(ConvergenceError, match="inertia count"):
        _search(spec, r, b, monkeypatch)


def test_a_root_at_an_end_of_the_interval_is_found_without_the_scan(monkeypatch):
    # point d = 3, one channel: g = 1 + B K vanishes at the end to
    # rounding, and the bracket takes the interval as closed and returns
    # the end as the root, as the exact route's count does
    spec = sx.build_point_interaction(3)
    r = sx.solve_homogeneous_R(spec.family, spec.gram).matrix
    for end in INTERVAL:
        b = sx.weyl_m(spec.spectral, r, end).matrix.real
        assert _search(spec, r, b, monkeypatch) == [end]


@pytest.mark.parametrize("q, d, coeffs", [
    (0.0, 0, np.ones((1, 1, 1))), (1.0, 0, np.ones((1, 1, 1))), (0.5, -1, np.ones((1, 1, 1))),
    (0.5, 0.5, np.ones((1, 1, 1))), (0.5, 0, np.ones((1, 2))), (0.5, 0, np.ones((0, 1, 1))),
    (0.5, 0, np.full((1, 1, 1), np.nan)),
])
def test_datum_refuses_what_it_cannot_mean(q, d, coeffs):
    with pytest.raises(ValueError):
        NegativeAxisPolynomial(q, d, coeffs)


def test_datum_must_match_the_channel_count():
    with pytest.raises(ValueError, match="channel count"):
        weyl.SpectralModel(1, lambda z: np.eye(1), np.eye(1), (True,),
                           negative_axis=NegativeAxisPolynomial(0.5, 0, np.ones((2, 2, 2))))


# ---------------------------------------------------------------------------
# Poles of M in the interval, roots at its ends, and the refusals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b00, want", [(0.0, [-1.0003]), (2.0, [-1.5625, -1.0003])],
                         ids=["B00 = 0", "B00 = 2"])
def test_root_next_to_a_pole_of_m(b00, want):
    # R[0, 0] = -Mhat(-1)[0, 0] puts a pole of M at -1; channel 1 has its
    # root 3e-4 away, inside the pole's cell of a 2000-point scan, which
    # returned [] and [-1.5625]
    spec = sx.build_scaling_invariant_3d(1.5, n=2)
    r0 = sx.solve_homogeneous_R(spec.family, spec.gram).matrix
    r = np.diag([-spec.spectral.m_hat(-1.0)[0, 0].real, r0[1, 1].real])
    b = np.diag([b00, sx.weyl_m(spec.spectral, r, -1.0003).matrix[1, 1].real])
    with pytest.raises(sx.PoleError):
        sx.weyl_m(spec.spectral, r, -1.0)
    got = sx.find_negative_eigenvalues(spec.spectral, r, b, (-3.0, -0.3))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("ulps", [-4, 0, 4])
@pytest.mark.parametrize("end", INTERVAL)
@pytest.mark.parametrize("name", ["one_dim", "scaling_1.5_n2"])
def test_a_root_at_an_end_of_two_channels_is_that_end(name, end, ulps, monkeypatch):
    # channel 0's root lies a few ulp from the end, where B - M is zero
    # to rounding; the scan returned it 4e-11 inside or missed it
    spec = MODELS[name]()
    r = sx.solve_homogeneous_R(spec.family, spec.gram).matrix
    m = lambda x: sx.weyl_m(spec.spectral, r, x).matrix.real
    b = np.diag([m(end + ulps * np.spacing(-end))[0, 0], m(-1.1)[1, 1]])
    inner = pytest.approx(-1.1, rel=0.0, abs=1e-12)
    assert _search(spec, r, b, monkeypatch) == ([end, inner] if end < -1.1 else [inner, end])


def _negatives(a):
    return int((np.linalg.eigvalsh(a) < 0.0).sum())


@pytest.mark.parametrize("interval", [(-3.0, -0.3), (-3.0, -0.1)])
def test_shifted_r_sweep_is_certified(interval):
    # R shifted off the homogeneous one puts poles of M in about one
    # search in four.  The scan dropped a root next to a pole
    # ((-3, -0.3), scaling 1.3, seed 72) and hit a pole at a grid point
    # ((-3, -0.1), scaling 1.3, seed 149).
    lo, hi = interval
    for name in ("one_dim", "scaling_1.5_n2", "scaling_1.3_gram3", "point_d3"):
        spec = MODELS[name]()
        n = spec.n
        r0 = sx.solve_homogeneous_R(spec.family, spec.gram).matrix
        for seed in range(200):
            rng = np.random.default_rng([18, seed, n])
            s = rng.normal(size=(n, n))
            r = r0 + 0.5 * (s + s.T) / 2
            s = rng.normal(size=(n, n))
            b = (s + s.T) / 2
            got = sx.find_negative_eigenvalues(spec.spectral, r, b, interval)
            # an independent count: K = R + Mhat increases on the negative
            # axis, so its negative eigenvalues fall by the number of poles
            k = [r + spec.spectral.m_hat(complex(x)).real for x in interval]
            m = lambda x: sx.weyl_m(spec.spectral, r, x).matrix
            want = (_negatives(b - m(hi)) - _negatives(b - m(lo))
                    + _negatives(k[0]) - _negatives(k[1]))
            assert len(got) == want, (name, seed)
            for x in got:
                gap = np.abs(np.linalg.eigvalsh(b - m(x))).min()
                assert gap <= 1e-9 * max(np.linalg.norm(b, 2), np.linalg.norm(m(x), 2)), \
                    (name, seed, x)


def test_two_channels_without_the_datum_are_refused():
    spectral = dataclasses.replace(sx.build_scaling_invariant_3d(1.5, n=2).spectral,
                                   negative_axis=None)
    with pytest.raises(ValueError, match="negative_axis"):
        sx.find_negative_eigenvalues(spectral, -2.0 * np.eye(2), np.eye(2), INTERVAL)


def test_close_roots_at_a_small_scale_are_not_merged():
    # M(x) = diag(-2u, 2/u), u = sqrt(-x), at the one-dim homogeneous R, so
    # B = diag(b0, b1) has the roots -(b0/2)^2 = -5e-11 and -(2/b1)^2 =
    # -2e-11: closer than tol = 1e-10, but far apart for their size.  A merge
    # at the absolute tol returned their mean, -3.5e-11
    spec = MODELS["one_dim"]()
    r = sx.solve_homogeneous_R(spec.family, spec.gram).matrix
    b = np.diag([-np.sqrt(2.0) * 1e-5, np.sqrt(2e11)])
    want = sorted([-(b[0, 0] / 2) ** 2, -(2 / b[1, 1]) ** 2])
    got = sx.find_negative_eigenvalues(spec.spectral, r, b, (-1e-9, -1e-12))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_constant_datum_is_singular_nowhere_or_refused():
    # d = 0 and one coefficient: Mhat = C_0 on the whole axis, with no
    # Taylor block for the companion matrix
    datum = NegativeAxisPolynomial(0.5, 0, 0.5 * np.eye(2)[None])
    spectral = weyl.SpectralModel(2, lambda z: 0.5 * np.eye(2), np.eye(2), (True, True),
                                  negative_axis=datum)
    r = -np.eye(2)  # M = 2 I
    assert sx.find_negative_eigenvalues(spectral, r, np.eye(2), (-3.0, -0.3)) == []
    # B - M = 0 on the whole axis: no roots to count
    with pytest.raises(ConvergenceError, match="inertia count"):
        sx.find_negative_eigenvalues(spectral, r, 2.0 * np.eye(2), (-3.0, -0.3))
