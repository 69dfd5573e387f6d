import warnings

import numpy as np
import pytest

import singext as sx
from singext import triplet
from singext.errors import DimensionMismatchError, PoleError
from singext.triplet import (AdmissibleMatrix, BoundaryCoordinates,
                             CouplingMatrix, boundary_form,
                             invert_or_refuse_poles, refuse_stacked_poles)

R_ONE_DIM = np.diag([0.5, -0.5])


def test_regularized_triplet_zero_range_values():
    # u(0) = 0.7, -u'(0) = -1.3, defect coefficients (0.4, 2.2);
    # with R = diag(1/2, -1/2) the regularized values are the one-sided
    # means (f(+0)+f(-0))/2 = 0.7 + 0.2 and -(f'(+0)+f'(-0))/2 = -1.3 - 1.1
    coords = BoundaryCoordinates([0.4, 2.2], [0.7, -1.3])
    g0, g1 = sx.to_regularized_triplet(coords, R_ONE_DIM)
    np.testing.assert_allclose(g0, [0.9, -2.4], atol=1e-15)
    np.testing.assert_allclose(g1, [-0.4, -2.2], atol=1e-15)


def test_zero_defect_part_gives_plain_values():
    coords = BoundaryCoordinates([0.0, 0.0], [1.5, -2.5])
    g0, g1 = sx.to_regularized_triplet(coords, R_ONE_DIM)
    np.testing.assert_array_equal(g0, coords.b)
    np.testing.assert_array_equal(g1, [0.0, 0.0])


def test_zero_r_is_identity_shuffle():
    coords = BoundaryCoordinates([1.0 + 2.0j, -0.5], [0.25j, 3.0])
    g0, g1 = sx.to_regularized_triplet(coords, np.zeros((2, 2)))
    np.testing.assert_array_equal(g0, coords.b)
    np.testing.assert_array_equal(g1, -coords.a)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        BoundaryCoordinates([1.0, 2.0], [1.0])
    with pytest.raises(DimensionMismatchError):
        sx.to_regularized_triplet(BoundaryCoordinates([1.0], [1.0]), R_ONE_DIM)
    with pytest.raises(DimensionMismatchError):
        sx.in_realization_domain(BoundaryCoordinates([1.0], [1.0]),
                                 np.zeros((2, 2)), np.zeros((1, 1)))


def test_triplet_linear_in_coordinates():
    rng = np.random.default_rng(7)
    r = AdmissibleMatrix(np.diag(rng.normal(size=3)))
    for _ in range(5):
        a1, b1, a2, b2 = (rng.normal(size=3) + 1j * rng.normal(size=3)
                          for _ in range(4))
        s, t = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        combined = BoundaryCoordinates(s * a1 + t * a2, s * b1 + t * b2)
        g0c, g1c = sx.to_regularized_triplet(combined, r)
        g0a, g1a = sx.to_regularized_triplet(BoundaryCoordinates(a1, b1), r)
        g0b, g1b = sx.to_regularized_triplet(BoundaryCoordinates(a2, b2), r)
        np.testing.assert_allclose(g0c, s * g0a + t * g0b, atol=1e-12)
        np.testing.assert_allclose(g1c, s * g1a + t * g1b, atol=1e-12)


def test_green_pairing_independent_of_hermitian_r():
    # the boundary pairing reduces to (b, a') - (a, b') for Hermitian R
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    r_herm = (raw + raw.conj().T) / 2
    for _ in range(5):
        c1 = BoundaryCoordinates(rng.normal(size=3) + 1j * rng.normal(size=3),
                                 rng.normal(size=3) + 1j * rng.normal(size=3))
        c2 = BoundaryCoordinates(rng.normal(size=3) + 1j * rng.normal(size=3),
                                 rng.normal(size=3) + 1j * rng.normal(size=3))
        with_r = boundary_form(sx.to_regularized_triplet(c1, r_herm),
                               sx.to_regularized_triplet(c2, r_herm))
        without = boundary_form(sx.to_regularized_triplet(c1, np.zeros((3, 3))),
                                sx.to_regularized_triplet(c2, np.zeros((3, 3))))
        assert with_r == pytest.approx(without, abs=1e-12)
        swapped = boundary_form(sx.to_regularized_triplet(c2, r_herm),
                                sx.to_regularized_triplet(c1, r_herm))
        assert with_r == pytest.approx(-np.conj(swapped), abs=1e-12)


def test_domain_membership_with_zero_coupling():
    # B = 0 realizes the boundary condition Gamma1 f = 0, i.e. a = 0
    inside = BoundaryCoordinates([0.0, 0.0], [2.0, -1.0])
    outside = BoundaryCoordinates([0.1, 0.0], [2.0, -1.0])
    zero = np.zeros((2, 2))
    assert sx.in_realization_domain(inside, zero, R_ONE_DIM)
    assert not sx.in_realization_domain(outside, zero, R_ONE_DIM)


def test_domain_membership_scalar_condition():
    # B = diag(b, 0) with a2 = 0 requires b (u0 + a1/2) = -a1;
    # with b = 2, a1 = 1 that forces u0 = -1
    coupling = np.diag([2.0, 0.0])
    good = BoundaryCoordinates([1.0, 0.0], [-1.0, 0.7])
    bad = BoundaryCoordinates([1.0, 0.0], [0.3, 0.7])
    assert sx.in_realization_domain(good, coupling, R_ONE_DIM)
    assert not sx.in_realization_domain(bad, coupling, R_ONE_DIM)


def test_domain_is_a_subspace_for_hermitian_coupling():
    rng = np.random.default_rng(23)
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    coupling = (raw + raw.conj().T) / 2 + 3 * np.eye(2)
    b_inv = np.linalg.inv(coupling)

    def member():
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b_vec = -b_inv @ a - R_ONE_DIM @ a
        return BoundaryCoordinates(a, b_vec)

    c1, c2 = member(), member()
    for s, t in [(1.0, 1.0), (2.0, -1.5), (0.3j, 1.0 - 0.2j)]:
        combo = BoundaryCoordinates(s * c1.a + t * c2.a, s * c1.b + t * c2.b)
        assert sx.in_realization_domain(combo, coupling, R_ONE_DIM, tol=1e-9)


@pytest.mark.parametrize("matrix,expected", [
    ([[1.0, 1j], [-1j, 2.0]], True),
    ([[0.0, 1.0], [0.0, 0.0]], False),
    ([[0.0, 0.0], [0.0, 0.0]], True),
])
def test_selfadjoint_realization_flag(matrix, expected):
    assert sx.is_selfadjoint_realization(np.array(matrix)) is expected


def test_admissible_matrix_must_be_hermitian():
    with pytest.raises(ValueError):
        AdmissibleMatrix([[0.0, 1.0], [0.0, 0.0]])
    AdmissibleMatrix([[1.0, 1j], [-1j, 2.0]])


def test_wrapped_arrays_are_read_only():
    coords = BoundaryCoordinates([1.0], [2.0])
    with pytest.raises(ValueError):
        coords.a[0] = 5.0
    coupling = CouplingMatrix([[1.0]])
    with pytest.raises(ValueError):
        coupling.matrix[0, 0] = 2.0


# ---------------------------------------------------------------------------
# The pole rule certified by the inverse
# ---------------------------------------------------------------------------

STACK_KINDS = [(n, cplx, herm) for n in (2, 3, 4) for cplx in (False, True)
               for herm in (False, True)]
ONE_MATRIX_KINDS = [(1, cplx, herm) for cplx in (False, True)
                    for herm in (False, True)] + STACK_KINDS


def _seeded_stack(n, cplx, herm, count=200):
    """Matrices with sigma_max from 1e-8 to 1e8 and sigma_min from 1e-17 to
    1e-9 times max(1, sigma_max), around the pole threshold 1e-14; for
    n = 1, where sigma_min = sigma_max, moduli from 1e-17 to 1e-9."""
    rng = np.random.default_rng([n, cplx, herm])

    def unitary():
        g = rng.standard_normal((count, n, n))
        if cplx:
            g = g + 1j * rng.standard_normal((count, n, n))
        return np.linalg.qr(g)[0]

    u = unitary()
    v = u if herm else unitary()
    if n == 1:
        s = 10.0 ** rng.uniform(-17.0, -9.0, (count, 1))
    else:
        top = 10.0 ** rng.uniform(-8.0, 8.0, count)
        low = np.minimum(top, 10.0 ** rng.uniform(-17.0, -9.0, count) * np.maximum(1.0, top))
        inner = np.exp(rng.uniform(np.log(low)[:, None], np.log(top)[:, None], (count, n - 2)))
        s = np.concatenate([top[:, None], inner, low[:, None]], axis=1)
    if herm:
        s = s * rng.choice([-1.0, 1.0], s.shape)  # eigenvalues of either sign
    return (u * s[:, None, :]) @ v.conj().swapaxes(-2, -1)


def _refused(mats):
    try:
        refuse_stacked_poles(mats, "A")
    except PoleError:
        return True
    return False


@pytest.fixture
def svd_rule_calls(monkeypatch):
    calls = []
    rule = triplet.refuse_stacked_poles
    monkeypatch.setattr(triplet, "refuse_stacked_poles",
                        lambda mats, what: calls.append(mats.shape[:-2]) or rule(mats, what))
    return calls


@pytest.mark.parametrize("n, cplx, herm", STACK_KINDS)
def test_certified_pole_rule_decides_as_the_svd_rule(n, cplx, herm, svd_rule_calls):
    stack = _seeded_stack(n, cplx, herm)
    refused = np.array([_refused(mat) for mat in stack])
    svd_rule_calls.clear()
    for mat, refuse in zip(stack, refused.tolist()):
        if refuse:
            with pytest.raises(PoleError):
                invert_or_refuse_poles(mat, "A")
        else:
            got = invert_or_refuse_poles(mat, "A")
            assert got.tobytes() == np.linalg.inv(mat).tobytes()
    certified = len(stack) - len(svd_rule_calls)
    # every outcome occurs: refused, passed by the SVD rule, certified
    assert 0 < refused.sum() < len(svd_rule_calls) < len(stack), (refused.sum(), certified)
    # a stack goes to the SVD rule whole, after its one inverse
    svd_rule_calls.clear()
    with pytest.raises(PoleError):
        invert_or_refuse_poles(stack, "A")
    regular = stack[~refused]
    assert invert_or_refuse_poles(regular, "A").tobytes() == np.linalg.inv(regular).tobytes()
    assert svd_rule_calls == [stack.shape[:1], regular.shape[:1]]


@pytest.mark.parametrize("n, cplx, herm", STACK_KINDS)
def test_certificate_clears_well_separated_matrices_at_every_scale(n, cplx, herm,
                                                                   svd_rule_calls):
    # sigma_min > n POLE_CERT_MARGIN POLE_RTOL max(1, sigma_max) is always
    # certified: ||A^-1||_F <= sqrt(n) / sigma_min, ||A||_F <= sqrt(n) sigma_max
    stack = _seeded_stack(n, cplx, herm)
    svals = np.linalg.svd(stack, compute_uv=False)
    clear = svals[:, -1] > 1e-11 * np.maximum(1.0, svals[:, 0])
    assert (svals[clear, 0] < 1.0).any() and (svals[clear, 0] > 1.0).any()
    for mat in stack[clear]:
        invert_or_refuse_poles(mat, "A")
    assert svd_rule_calls == []


def test_exactly_singular_matrix_in_a_stack_is_a_pole_not_a_lapack_error():
    stack = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 2.0], [2.0, 4.0]],
                      [[1.0, 0.0], [0.0, 1.0]]], dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(stack)
    with pytest.raises(PoleError):
        invert_or_refuse_poles(stack, "A")


def test_exactly_singular_matrix_is_a_pole_even_where_the_svd_rule_passes(monkeypatch):
    monkeypatch.setattr(triplet, "refuse_stacked_poles", lambda mats, what: None)
    for singular in (np.ones((2, 2)), np.ones((1, 2, 2))):  # a matrix, a stack
        with pytest.raises(PoleError):
            invert_or_refuse_poles(singular, "A")


def test_overflowing_inverse_goes_to_the_svd_rule_without_warning(svd_rule_calls):
    stack = np.array([np.eye(2), np.diag([1.0, 1e-310]), 3.0 * np.eye(2)], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(np.linalg.inv(stack)).all()
        with pytest.raises(PoleError):
            invert_or_refuse_poles(stack, "A")
    assert svd_rule_calls == [(3,)]


def test_uncertifiable_norms_go_to_the_svd_rule_without_warning(svd_rule_calls):
    # ||A||_F^2 would overflow and ||A^-1||_F^2 underflow: a stack takes no
    # norms, and the SVD rule finds no pole
    stack = np.array([[[2.0, 1.0], [1.0, 3.0]]], dtype=complex) * np.array([1e200, 1.0])[:, None, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = invert_or_refuse_poles(stack, "A")
    assert got.tobytes() == np.linalg.inv(stack).tobytes()
    assert svd_rule_calls == [(2,)]


# The same rule on one matrix (n, n), the form of the scalar weyl_m and
# krein_correction: norms summed in Python floats, one np.linalg.inv.

@pytest.mark.parametrize("n, cplx, herm", ONE_MATRIX_KINDS)
def test_certified_pole_rule_on_one_matrix_decides_as_the_svd_rule(n, cplx, herm,
                                                                   svd_rule_calls):
    stack = _seeded_stack(n, cplx, herm)
    refused = [_refused(mat) for mat in stack]
    assert refused == [_refused(mat[None]) for mat in stack]
    svd_rule_calls.clear()
    for mat, refuse in zip(stack, refused):
        if refuse:
            with pytest.raises(PoleError):
                invert_or_refuse_poles(mat, "A")
        else:
            got = invert_or_refuse_poles(mat, "A")
            assert got.tobytes() == np.linalg.inv(mat).tobytes()
    # every outcome occurs: refused, passed by the SVD rule, certified
    assert 0 < sum(refused) < len(svd_rule_calls) < len(stack)
    assert set(svd_rule_calls) == {()}


@pytest.mark.parametrize("mat, pole", [
    (np.diag([1.0, 1e-310]), True),  # the inverse overflows
    (np.array([[1e-310]]), True),
    (1e-200 * np.array([[2.0, 1.0], [1.0, 3.0]]), True),  # ||A||_F^2 underflows
    (1e200 * np.array([[2.0, 1.0], [1.0, 3.0]]), False),  # ||A||_F^2 overflows
    (np.array([[1e200]]), False),
], ids=["inverse overflows", "1x1 inverse overflows", "norm underflows",
        "norm overflows", "1x1 norm overflows"])
def test_uncertifiable_single_matrix_goes_to_the_svd_rule_without_warning(mat, pole,
                                                                         svd_rule_calls):
    mat = mat.astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if pole:
            with pytest.raises(PoleError):
                invert_or_refuse_poles(mat, "A")
        else:
            assert invert_or_refuse_poles(mat, "A").tobytes() == np.linalg.inv(mat).tobytes()
    assert svd_rule_calls == [()]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("n", [1, 3])
def test_single_matrix_that_is_not_finite_is_refused_before_the_inverse(bad, n, monkeypatch):
    mat = np.eye(n, dtype=complex)
    mat[-1, 0] = bad
    monkeypatch.setattr(np.linalg, "inv", lambda a: pytest.fail("inverted"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            invert_or_refuse_poles(mat, "A")


@pytest.mark.parametrize("singular", [[[1.0, 2.0], [2.0, 4.0]], [[0.0]]])
def test_exactly_singular_matrix_is_a_pole_through_weyl_m_and_krein(singular, monkeypatch):
    singular = np.array(singular, dtype=complex)
    n = len(singular)
    model = sx.SpectralModel(n=n, m_hat=lambda z: singular.copy(), overlap=np.eye(n),
                             psi_in_Hminus1=(True,) * n)
    # with the SVD rule passing everything, the refusal must come from the
    # LinAlgError of the inverse, not escape as one
    monkeypatch.setattr(triplet, "refuse_stacked_poles", lambda mats, what: None)
    with pytest.raises(PoleError, match="R \\+ Mhat"):
        sx.weyl_m(model, np.zeros((n, n)), -1.0)
    with pytest.raises(PoleError, match="B - M"):
        sx.krein_correction(np.zeros((n, n)), singular)


def test_overflowing_b_minus_m_is_refused_by_krein_correction():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning from B - M
        with pytest.raises(ValueError, match="finite"):
            sx.krein_correction([[-1e308]], [[1e308]])
