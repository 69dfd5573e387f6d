import mpmath
import numpy as np
import pytest

import singext as sx
from singext.errors import DimensionMismatchError, PoleError
from singext.spectra_scattering import (NONNEGATIVITY_REASONS,
                                        S_MATRIX_PROVENANCE_NOTE,
                                        NonnegativityReport, _nonnegativity_grid)
from singext.symmetry import DEFAULT_TOL, SymmetryFamily
from singext.triplet import stacked_singular_values, within


def nonnegative(b, r=-2.0, tol=DEFAULT_TOL):
    """The one-channel criterion for B = [[b]] and R = [[r]]."""
    return sx.is_nonnegative_realization([[b]], [[r]], tol)


def test_nonnegative_for_zero_coupling():
    report = nonnegative(0.0)
    assert report
    assert report.reason == ""


def test_det_clause_fails_at_half():
    # with R = -2 the matrix BR + I is singular exactly at b = 1/2
    report = nonnegative(0.5)
    assert not report
    assert "det" in report.reason


def test_scalar_criterion_matches_hand_rule():
    # for R = -2 the Loewner sandwich 0 <= -b/(1-2b) <= 1/2 holds exactly
    # for b <= 0 (all positive b place an eigenvalue below the spectrum)
    for b in (-5.0, -1.0, -1e-3, 0.0):
        assert nonnegative(b)
    for b in (1e-3, 0.3, 0.7, 5.0):
        assert not nonnegative(b)


def test_criterion_agrees_with_eigenvalue_scan(scaling, scaling_r):
    for b in (-2.0, -0.5, 0.2, 1.0, 3.0):
        verdict = bool(nonnegative(b))
        roots = sx.find_negative_eigenvalues(scaling.spectral, scaling_r,
                                             [[b]], (-60.0, -1e-3))
        assert verdict == (len(roots) == 0)


def test_nonnegativity_requires_hermitian_coupling():
    with pytest.raises(ValueError):
        sx.is_nonnegative_realization([[1.0j]], [[-2.0]])


def test_nonnegativity_requires_invertible_r():
    with pytest.raises(ValueError):
        sx.is_nonnegative_realization([[1.0]], [[0.0]])


def test_report_is_jsonable():
    report = nonnegative(-1.0)
    assert isinstance(report, NonnegativityReport)
    blob = report.to_json()
    assert blob["nonnegative"] is True


def _hermitian_stack(rng, n, count):
    raw = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    scale = rng.choice([0.01, 1.0, 10.0], size=(count, 1, 1))
    return scale * (raw + raw.conj().swapaxes(-2, -1)) / 2


def _stack_cases():
    """(B stack, R, tol) per n = 1..4, seeded; they reach every reason."""
    rng = np.random.default_rng(2024)
    # R = -2: pass at b <= 0, det(BR+I) = 0 at b = 1/2, X < 0 for 0 < b < 1/2
    # and X > -R^-1 = 1/2 for b > 1/2
    hand = np.array([-1.0, 0.0, 0.5, 0.25, 2.0]).reshape(-1, 1, 1)
    yield np.concatenate([hand, _hermitian_stack(rng, 1, 40).real]), np.array([[-2.0]]), 1e-10
    for n in (2, 3, 4):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        r = (raw + raw.conj().T) / 2 - 3.0 * np.eye(n)
        r_inv = -np.linalg.inv(r)
        singular = (r_inv + r_inv.conj().T) / 2  # BR + I = 0 up to rounding
        stack = np.concatenate([singular[None], np.zeros((1, n, n)),
                                _hermitian_stack(rng, n, 40)])
        # at tol 1e-18 the rounding of X = -(BR+I)^-1 B shows as skewness
        for tol in (1e-10, 1e-18):
            yield stack, r, tol


def _one_coupling_reference(b, r, tol):
    """The criterion for one B, step by step with early returns: the
    reference for the stacked kernel (its norms are those of 2-D arrays)."""
    n = b.shape[0]
    k = b @ r + np.eye(n)
    det = complex(np.linalg.det(k))
    if within(abs(det), tol, float(np.linalg.norm(k)) ** n):
        return NonnegativityReport(False, "det(BR+I) vanishes", det, None, None)
    x = -np.linalg.solve(k, b)
    x_h = (x + x.conj().T) / 2
    x_norm = float(np.linalg.norm(x_h))
    if not within(float(np.linalg.norm(x - x.conj().T)), tol, x_norm):
        return NonnegativityReport(False, "-(BR+I)^-1 B is not Hermitian",
                                   det, None, None)
    x_min = float(np.linalg.eigvalsh(x_h).min())
    gap = -np.linalg.inv(r) - x_h
    gap_h = (gap + gap.conj().T) / 2
    gap_min = float(np.linalg.eigvalsh(gap_h).min())
    if not within(-x_min, tol, x_norm):
        return NonnegativityReport(False, "lower Loewner bound 0 <= X fails",
                                   det, x_min, gap_min)
    if not within(-gap_min, tol, float(np.linalg.norm(gap_h))):
        return NonnegativityReport(False, "upper Loewner bound X <= -R^-1 fails",
                                   det, x_min, gap_min)
    return NonnegativityReport(True, "", det, x_min, gap_min)


def test_stacked_kernel_is_the_one_coupling_report_bit_for_bit():
    reasons = set()
    for stack, r, tol in _stack_cases():
        grid = _nonnegativity_grid(stack.astype(complex), r.astype(complex), tol)
        verdicts = sx.nonnegative_grid(stack, r, tol)
        for i, b in enumerate(stack):
            one = sx.is_nonnegative_realization(b, r, tol)
            ref = _one_coupling_reference(b.astype(complex), r.astype(complex), tol)
            assert repr(one) == repr(ref)
            reason, det, x_min, gap_min = (field[i] for field in grid)
            assert NONNEGATIVITY_REASONS[reason] == one.reason
            assert verdicts[i] == one.nonnegative == (reason == 0)
            assert repr(complex(det)) == repr(one.det_value)
            if reason in (1, 2):
                assert one.x_min_eig is None and one.gap_min_eig is None
            else:
                assert repr(float(x_min)) == repr(one.x_min_eig)
                assert repr(float(gap_min)) == repr(one.gap_min_eig)
            reasons.add(one.reason)
    assert reasons == set(NONNEGATIVITY_REASONS)


def test_stacked_kernel_refuses_what_the_one_coupling_call_refuses():
    reg = [[-2.0]]
    with pytest.raises(ValueError, match="Hermitian B"):
        sx.nonnegative_grid([[[-1.0]], [[1.0j]]], reg)
    with pytest.raises(ValueError, match="invertible"):
        sx.nonnegative_grid([[[-1.0]]], [[0.0]])
    with pytest.raises(DimensionMismatchError):
        sx.nonnegative_grid(np.zeros((3, 2, 2)), reg)
    assert sx.nonnegative_grid(np.zeros((0, 1, 1)), reg).shape == (0,)


# homogeneity ---------------------------------------------------------------

def test_padic_homogeneous_only_at_zero(padic, padic_r):
    fam = padic.family
    assert sx.is_homogeneous_realization([[0.0]], fam)
    for b in (-0.7, 0.7, 3.0):
        assert not sx.is_homogeneous_realization([[b]], fam)


def test_homogeneous_vacuously_true_for_zero_matrix(one_dim):
    assert sx.is_homogeneous_realization(np.zeros((2, 2)), one_dim.family)


def test_homogeneous_offdiagonal_coupling_only():
    # xi_1 xi_2 = p holds for the pair (t^-1/2, t^-3/2) under p = t^-2,
    # while xi_1^2 does not, so only off-diagonal couplings survive
    ts = (2.0, 0.5)
    fam = SymmetryFamily(ts, {2.0: 0.5, 0.5: 2.0},
                         {t: t ** -2.0 for t in ts},
                         [{t: t ** -0.5 for t in ts},
                          {t: t ** -1.5 for t in ts}])
    assert sx.is_homogeneous_realization([[0.0, 1.0], [1.0, 0.0]], fam)
    assert not sx.is_homogeneous_realization([[0.5, 1.0], [1.0, 0.0]], fam)


def test_homogeneity_needs_family(padic):
    # the family is a required argument, and its channel count is B's
    with pytest.raises(TypeError):
        sx.is_homogeneous_realization([[1.0]])
    with pytest.raises(DimensionMismatchError, match="B is 2x2 but the family has 1 channels"):
        sx.is_homogeneous_realization(np.eye(2), padic.family)


def homogeneous_by_definition(b, family, tol):
    """The rule of the docstring, entry by entry: False when some index
    pair with |B[i, j]| > tol has a sample where xi_i xi_j != p."""
    for i in range(family.n):
        for j in range(family.n):
            if abs(complex(b[i, j])) <= tol:
                continue
            for t in family.sample_points:
                if abs(family.xi[i][t] * family.xi[j][t] - family.p[t]) > tol:
                    return False
    return True


def near_homogeneous_family():
    """Three channels under p = t^-2: the pair (0, 1) is homogeneous, and
    xi_2^2 misses p by about 1e-6, inside the range of the swept tol."""
    ts = (2.0, 0.5)
    return SymmetryFamily(ts, {2.0: 0.5, 0.5: 2.0}, {t: t ** -2.0 for t in ts},
                          [{t: t ** -0.5 for t in ts}, {t: t ** -1.5 for t in ts},
                           {t: t ** -1.0 * (1.0 + 1e-6 * (t - 1.0)) for t in ts}])


HOMOGENEITY_FAMILIES = {
    "one_dim": lambda: sx.build_one_dim_model().family,
    "point_d1": lambda: sx.build_point_interaction(1).family,
    "point_d2": lambda: sx.build_point_interaction(2).family,
    "point_d3": lambda: sx.build_point_interaction(3).family,
    "padic_2_1.5": lambda: sx.build_padic_model(2, 1.5).family,
    "padic_3_0.75": lambda: sx.build_padic_model(3, 0.75).family,
    "scaling_n1": lambda: sx.build_scaling_invariant_3d(1.5).family,
    "scaling_n3": lambda: sx.build_scaling_invariant_3d(1.5, n=3).family,
    "near_homogeneous": near_homogeneous_family,
}


def random_couplings(rng, n, tol, count):
    """count seeded B (count, n, n).  Each entry is one of: 0, +-1e-11,
    +-tol, tol at a random phase (a modulus within an ulp of tol, where
    numpy's array modulus can differ from the scalar one), tol (1 +- 1e-9)
    at a random phase, or a normal draw at a random scale."""
    shape = (count, n, n)
    phase = np.exp(2j * np.pi * rng.uniform(size=shape))
    normal = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
              * rng.choice([0.0, 1.0], size=shape))
    normal *= 10.0 ** rng.uniform(-14, 1, size=(count, 1, 1))
    choices = [0.0, 1e-11, -1e-11, tol * rng.choice([-1.0, 1.0], size=shape),
               tol * phase, tol * (1.0 + rng.choice([-1e-9, 1e-9], size=shape)) * phase,
               normal]
    return np.choose(rng.integers(0, len(choices), size=shape), choices)


@pytest.mark.parametrize("name", HOMOGENEITY_FAMILIES)
def test_homogeneity_is_the_entry_rule_over_a_seeded_sweep(name):
    family = HOMOGENEITY_FAMILIES[name]()
    rng = np.random.default_rng([2800, list(HOMOGENEITY_FAMILIES).index(name)])
    verdicts = []
    for _ in range(500):
        tol = 10.0 ** rng.uniform(-12, -2)
        b = random_couplings(rng, family.n, tol, 1)[0]
        got = sx.is_homogeneous_realization(b, family, tol)
        assert type(got) is bool
        assert got == homogeneous_by_definition(b, family, tol), (b, tol)
        verdicts.append(got)
    # every family but point d = 2 (xi^2 = p) sees both verdicts
    assert set(verdicts) == ({True} if name == "point_d2" else {True, False})


@pytest.mark.parametrize("name", HOMOGENEITY_FAMILIES)
@pytest.mark.parametrize("tol", [1e-12, 1e-10, 1e-6, 1e-2])
def test_stacked_homogeneity_is_the_verdict_of_each_b(name, tol):
    family = HOMOGENEITY_FAMILIES[name]()
    n = family.n
    rng = np.random.default_rng([2801, list(HOMOGENEITY_FAMILIES).index(name)])
    stack = random_couplings(rng, n, tol, 24)
    one_by_one = [sx.is_homogeneous_realization(b, family, tol) for b in stack]
    flat = sx.is_homogeneous_realization(stack, family, tol)
    assert flat.shape == (24,) and flat.dtype == bool
    assert flat.tolist() == one_by_one
    grid = sx.is_homogeneous_realization(stack.reshape(4, 6, n, n), family, tol)
    assert grid.shape == (4, 6)
    assert grid.ravel().tolist() == one_by_one
    empty = sx.is_homogeneous_realization(np.zeros((0, n, n)), family, tol)
    assert empty.shape == (0,)


def test_homogeneity_refuses_a_bad_b_or_tol(padic):
    fam = padic.family
    with pytest.raises(DimensionMismatchError, match="the family has 1 channels"):
        sx.is_homogeneous_realization(np.zeros((3, 2, 2)), fam)
    with pytest.raises(DimensionMismatchError, match="square"):
        sx.is_homogeneous_realization(np.zeros((3, 1, 2)), fam)
    with pytest.raises(ValueError, match="finite"):
        sx.is_homogeneous_realization([[np.nan]], fam)
    bs = np.zeros((3, 1, 1))
    bs[1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        sx.is_homogeneous_realization(bs, fam)
    for tol in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="finite tol above 0"):
            sx.is_homogeneous_realization([[0.0]], fam, tol)


# spectrum ladder -----------------------------------------------------------

def test_ladder_matches_geometric_sequence():
    points = sx.spectrum_ladder(-1.0, 4.0, (-2, 2))
    assert points == [-0.0625, -0.25, -1.0, -4.0, -16.0]


def test_ladder_empty_range():
    assert sx.spectrum_ladder(-1.0, 4.0, (2, 1)) == []


def test_ladder_with_padic_ratio():
    # a homogeneous p-adic realization (p = 2, exponent 3/2) propagates any
    # eigenvalue along powers of p(t0) = 2^(3/2)
    ratio = 2.0 ** 1.5
    points = sx.spectrum_ladder(-1.0, ratio, (0, 2))
    np.testing.assert_allclose(points, [-1.0, -ratio, -(ratio ** 2)], rtol=1e-15)


def test_ladder_shift_covariance():
    lam, ratio = -0.7, 2.7
    base = sx.spectrum_ladder(lam, ratio, (-3, 3))
    shifted = sx.spectrum_ladder(lam, ratio, (-2, 4))
    np.testing.assert_allclose([v * ratio for v in base], shifted, rtol=1e-15)
    dyadic = sx.spectrum_ladder(-1.0, 4.0, (-2, 2))
    assert [v * 4.0 for v in dyadic] == sx.spectrum_ladder(-1.0, 4.0, (-1, 3))


def test_ladder_rejects_degenerate_ratio():
    with pytest.raises(ValueError):
        sx.spectrum_ladder(-1.0, 1.0, (0, 1))
    with pytest.raises(ValueError):
        sx.spectrum_ladder(-1.0, 0.0, (0, 1))


# scattering matrix ---------------------------------------------------------

def test_smatrix_identity_at_zero():
    result = sx.s_matrix(np.array([[0.7, 0.1], [0.1, -0.3]]), 0.0)
    np.testing.assert_array_equal(result.matrix, np.eye(2))
    assert result.unitary is True


def test_smatrix_scalar_unimodular_on_real_axis():
    result = sx.s_matrix(np.array([[1.3]]), 0.7)
    assert abs(result.matrix[0, 0]) == pytest.approx(1.0, abs=1e-15)
    expected = (1 - 2j * 0.7 * 1.3) / (1 + 2j * 0.7 * 1.3)
    assert result.matrix[0, 0] == pytest.approx(expected, rel=1e-14)


def test_smatrix_unitary_for_random_hermitian():
    rng = np.random.default_rng(17)
    for _ in range(10):
        raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        herm = (raw + raw.conj().T) / 2
        delta = rng.uniform(-10, 10)
        result = sx.s_matrix(herm, delta)
        assert result.unitary_defect <= 1e-12
        assert result.unitary is True


def test_smatrix_inverse_conjugate_symmetry():
    rng = np.random.default_rng(19)
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    herm = (raw + raw.conj().T) / 2
    for z in (0.4 + 0.9j, -1.2 + 0.3j):
        s_up = sx.s_matrix(herm, z).matrix
        s_down = sx.s_matrix(herm, np.conj(z)).matrix
        np.testing.assert_allclose(s_down.conj().T @ s_up, np.eye(2), atol=1e-12)


def test_smatrix_contractive_for_nonnegative_coupling():
    # b <= 0 passes the nonnegativity criterion for R = -2; its S-matrix
    # must be contractive in the upper half-plane
    for b in (-0.4, -3.0):
        for z in (0.5 + 0.2j, -2.0 + 1.5j, 3.0j):
            result = sx.s_matrix(np.array([[b]]), z)
            assert result.contractive is True
            assert result.max_singular_value <= 1.0 + 1e-12


def test_smatrix_pole_detected():
    with pytest.raises(PoleError):
        sx.s_matrix(np.array([[1.0]]), 0.5j)


def test_smatrix_note_mentions_model_scope():
    assert "3/2" in S_MATRIX_PROVENANCE_NOTE


def test_realization_spec_validates_dimensions():
    # a realization is the pair (B, R); B of another size than R is refused
    with pytest.raises(DimensionMismatchError, match="B is 2x2 but R is 1x1"):
        sx.is_nonnegative_realization(np.zeros((2, 2)), [[1.0]])


# scattering matrix on a z grid ----------------------------------------------

def cayley_one_point(b, z):
    """S(z) by the scalar arithmetic the grid must keep: the quotient of
    the two entries for n = 1, one 2-D solve for n >= 2."""
    eye = np.eye(b.shape[0])
    z = complex(z)
    numer, denom = eye - 2j * z * b, eye + 2j * z * b
    if b.shape[0] == 1:
        return numer / denom
    return np.linalg.solve(denom.T, numer.T).T


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("hermitian", [True, False])
def test_smatrix_grid_matches_scalar_bit_for_bit(n, hermitian):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = (raw + raw.conj().T) / 2 if hermitian else raw
        zs = np.concatenate([rng.uniform(-10, 10, 6),
                             rng.uniform(-10, 10, 6) + 1j * rng.uniform(-10, 10, 6)])
        grid = sx.s_matrix_grid(b, zs)
        for z, s in zip(zs, grid):
            assert np.array_equal(s, cayley_one_point(b, z))
            assert np.array_equal(s, sx.s_matrix(b, z).matrix)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_smatrix_grid_over_a_stack_of_couplings_is_the_per_coupling_call(n):
    rng = np.random.default_rng(200 + n)
    raw = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
    bs = (raw + raw.conj().swapaxes(-2, -1)) / 2
    zs = np.concatenate([rng.uniform(-10, 10, 2),
                         rng.uniform(-10, 10, 3) + 1j * rng.uniform(-10, 10, 3)])
    paired = sx.s_matrix_grid(bs, zs)
    for b, z, s in zip(bs, zs, paired):
        assert np.array_equal(s, sx.s_matrix_grid(b, z))
        assert np.array_equal(s, sx.s_matrix(b, z).matrix)
    crossed = sx.s_matrix_grid(bs[:, None], zs)
    for b, row in zip(bs, crossed):
        assert np.array_equal(row, sx.s_matrix_grid(b, zs))


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_smatrix_grid_shape(shape):
    b = np.array([[0.7, 0.1], [0.1, -0.3]])
    z = np.full(shape, 0.4 + 0.9j)
    assert sx.s_matrix_grid(b, z).shape == shape + (2, 2)


@pytest.mark.parametrize("lead, z_shape, shape", [
    ((5,), (5,), (5,)), ((7, 1, 1), (20, 20), (7, 20, 20)),
    ((), (0,), (0,)), ((3, 1), (0,), (3, 0))])
@pytest.mark.parametrize("n", [1, 2])
def test_smatrix_grid_stack_shape(lead, z_shape, shape, n):
    # the couplings' leading shape broadcasts against the shape of z
    b = np.array([[0.7, 0.1], [0.1, -0.3]])[:n, :n]
    z = np.full(z_shape, 0.4 + 0.9j)
    assert sx.s_matrix_grid(np.broadcast_to(b, lead + (n, n)), z).shape == shape + (n, n)


def test_smatrix_grid_identity_at_zero():
    b = np.array([[0.7, 0.1], [0.1, -0.3]])
    s = sx.s_matrix_grid(b, np.zeros(3))
    assert all(np.array_equal(m, np.eye(2)) for m in s)


def test_smatrix_grid_pole_at_one_point():
    z = np.array([[1.0 + 1.0j, 0.5j], [2.0, -1.0 + 0.5j]])
    with pytest.raises(PoleError, match="singular at the requested point"):
        sx.s_matrix_grid(np.array([[1.0]]), z)


def test_smatrix_grid_pole_at_one_coupling_and_point():
    # at z = i/2, I + 2iz b = 1 - b: singular for b = 1 only
    bs = np.array([0.5, 1.0, 2.0]).reshape(3, 1, 1, 1)
    z = np.array([1.0, 0.5j])
    with pytest.raises(PoleError, match="singular at the requested point"):
        sx.s_matrix_grid(bs, z)
    assert sx.s_matrix_grid(bs[[0, 2]], z).shape == (2, 2, 1, 1)
    assert sx.s_matrix_grid(bs, z[:1]).shape == (3, 1, 1, 1)


def test_smatrix_grid_refuses_a_bad_stack():
    with pytest.raises(DimensionMismatchError, match="square"):
        sx.s_matrix_grid(np.ones((3, 1, 2)), [0.5])
    bs = np.zeros((3, 2, 2), dtype=complex)
    bs[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        sx.s_matrix_grid(bs, 0.5)


def test_one_channel_quotient_is_the_exact_quotient_to_rounding():
    # n = 1 takes N / D elementwise; against the quotient of the same
    # rounded N and D at 200 bits, for real and nonreal z, Hermitian and
    # non-Hermitian b, and z at the ends of the float range
    rng = np.random.default_rng(2211)
    count = 2000
    b = rng.normal(size=count) * rng.choice([0.01, 1.0, 100.0], size=count)
    b = b + 1j * rng.normal(size=count) * rng.choice([0.0, 1.0], size=count)
    z = rng.uniform(-10, 10, count) + 1j * rng.uniform(-10, 10, count) * rng.choice(
        [0.0, 1.0], size=count)
    b = np.concatenate([b, [0.5, 0.5, -1.5, 0.5 + 0.5j]])
    z = np.concatenate([z, [1e300, 1e-300, 1e300 + 1e300j, 1e-300j]])
    s = sx.s_matrix_grid(b.reshape(-1, 1, 1), z)[:, 0, 0]
    wb = (2j * z) * b
    eps = np.finfo(float).eps
    with mpmath.workprec(200):
        for got, numer, denom in zip(s.tolist(), (1 - wb).tolist(), (1 + wb).tolist()):
            exact = mpmath.mpc(numer) / mpmath.mpc(denom)
            assert abs(mpmath.mpc(got) - exact) <= 4 * eps * abs(exact), (got, numer, denom)
        # at z = 1e300 and b = 1/2, S = -1 - 2e-300 i; its small imaginary
        # part is right too
        exact = mpmath.mpc(1 - 1e300j) / mpmath.mpc(1 + 1e300j)
        assert abs(s[-4].imag - exact.imag) <= 4 * eps * abs(exact.imag)


# every 20th coupling of criterion 7's contractivity sweep, and its last
@pytest.mark.parametrize("b", np.linspace(-5.0, 5.0, 200)[[0, 20, 40, 60, 80, 99]])
def test_modulus_is_the_one_singular_value_on_criterion_7_grid(b):
    # criterion 7's 20 x 20 points of the upper half-plane
    grid = np.linspace(-10.0, 10.0, 20)[:, None] + 1j * np.linspace(0.05, 10.0, 20)[None, :]
    s = sx.s_matrix_grid(np.array([[b]]), grid)
    got = stacked_singular_values(s)
    want = np.linalg.svd(s, compute_uv=False)
    assert got.shape == want.shape == (20, 20, 1)
    np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)


def test_stacked_singular_values_of_larger_matrices_are_the_svd():
    rng = np.random.default_rng(7)
    mats = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
    assert np.array_equal(stacked_singular_values(mats),
                          np.linalg.svd(mats, compute_uv=False))


@pytest.mark.parametrize("ratio", [float("nan"), float("inf"), -float("inf")])
def test_ladder_refuses_a_ratio_that_is_not_finite(ratio):
    with pytest.raises(ValueError, match="finite"):
        sx.spectrum_ladder(-1.0, ratio, (-2, 2))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_nonnegativity_refuses_a_meaningless_tol(tol):
    # NaN and -1 were reported as a B that is not Hermitian, inf as an R
    # that is not invertible
    with pytest.raises(ValueError, match="finite tol above 0"):
        nonnegative(-1.0, tol=tol)
    with pytest.raises(ValueError, match="finite tol above 0"):
        sx.nonnegative_grid([[[-1.0]]], [[-2.0]], tol)
