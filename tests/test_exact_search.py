"""The exact eigenvalue search of the continuous families.

On the negative axis the point (d = 1, 3), scaling and one-dim backends
give Mhat(x) as a polynomial in u = (-x)^q divided by u^d
(``SpectralModel.negative_axis``), so ``find_negative_eigenvalues`` takes
the roots of det(B - M(x)) from one small eigenproblem and certifies
their number by the inertia of B - M at the ends of the interval.  The
scan stays the oracle: the two routes agree wherever the scan can see a
root, and the exact route finds more only at roots of even multiplicity.
"""

import numpy as np
import pytest

import singext as sx
from singext import models, weyl
from singext.symmetry import DEFAULT_TOL
from singext.weyl import NegativeAxisPolynomial

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
    """The search's roots, and whether it scanned."""
    scans = []
    scan = weyl._scan_roots
    monkeypatch.setattr(weyl, "_scan_roots", lambda *a: scans.append(a) or scan(*a))
    roots = sx.find_negative_eigenvalues(spec.spectral, r, b, INTERVAL)
    monkeypatch.setattr(weyl, "_scan_roots", scan)
    return roots, bool(scans)


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
    exact_routes = 0
    for _ in range(6):
        b = _seeded_hermitian(rng, n, spec, r)
        got, scanned = _search(spec, r, b, monkeypatch)
        want = weyl._scan_roots(spec.spectral, r, b, *INTERVAL, DEFAULT_TOL, 2000)
        exact_routes += not scanned
        assert got == sorted(got)
        for x in want:
            assert min(abs(np.array(got) - x)) <= DEFAULT_TOL, (x, got)
        for x in got:
            if min(abs(np.array(want) - x), default=np.inf) > DEFAULT_TOL:
                assert _multiplicity(spec, r, b, x) % 2 == 0, (x, want)
    if not shifted:  # M is pole-free on the negative axis: the count holds
        assert exact_routes == 6


def test_broken_datum_falls_back_to_the_scan(monkeypatch):
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
    roots, scanned = _search(spec, r, b, monkeypatch)
    assert scanned
    assert roots == weyl._scan_roots(spec.spectral, r, b.astype(complex), *INTERVAL,
                                     DEFAULT_TOL, 2000)
    np.testing.assert_allclose(roots, [-1.9, -1.1], rtol=0.0, atol=1e-8)


def test_a_root_at_an_end_of_the_interval_is_found_without_the_scan(monkeypatch):
    # B - M vanishes at the end, so the inertia count there is undecided;
    # the one channel's bracketed route finds the end as the root
    spec = sx.build_point_interaction(3)
    r = sx.solve_homogeneous_R(spec.family, spec.gram).matrix
    for end in INTERVAL:
        b = sx.weyl_m(spec.spectral, r, end).matrix.real
        roots, scanned = _search(spec, r, b, monkeypatch)
        assert not scanned
        assert roots == [pytest.approx(end, rel=1e-13, abs=0.0)]


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
