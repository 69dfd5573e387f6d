import contextlib
import io
import json
import math

import mpmath
import numpy as np
import pytest

import singext as sx
from singext import models
from singext.cli import run
from singext.errors import ConvergenceError
from singext.quadrature import (integrate_half_line, integrate_half_line_complex,
                                integrate_real_line)


# quadrature back end --------------------------------------------------------

def test_half_line_quadrature_known_integrals():
    assert integrate_half_line(lambda y: np.exp(-y)) == \
        pytest.approx(1.0, abs=1e-12)
    assert integrate_half_line(lambda y: 1.0 / (1.0 + y * y)) == \
        pytest.approx(math.pi / 2, abs=1e-12)


def test_complex_quadrature_against_closed_form():
    # int_0^inf dr / (r^2 - z) = pi / (2 sqrt(-z)) on the cut plane
    for z in (-2.0, 0.5 + 0.5j, -1.0 + 2.0j):
        got = integrate_half_line_complex(lambda r: 1.0 / (r * r - z))
        assert got == pytest.approx(np.pi / (2 * np.sqrt(-complex(z))), rel=1e-10)


def test_real_line_quadrature_folds():
    assert integrate_real_line(lambda x: np.exp(-np.abs(x))) == \
        pytest.approx(2.0, abs=1e-11)


@pytest.mark.parametrize("alpha", [1.05, 1.1, 1.2, 1.5, 1.8, 1.9])
def test_scaling_quadratures_match_closed_forms(alpha):
    # QUADPACK was 1.1e-11 off at 1.1; the tails y^-1.1 at 1.05 and y^-0.9
    # at 0 near 1.95 are what the window of the rule must reach
    c_ref, h_ref = models.scaling_constants(alpha)
    assert abs(models.c_alpha(alpha) - c_ref) <= 1e-14 * c_ref
    assert abs(models.h_norm_integral(alpha) - h_ref) <= 1e-14 * h_ref


@pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 2.0, 4.0])
def test_one_dim_gram_quadrature_to_rounding(t):
    closed = models.one_dim_gram_closed(t)
    for i in range(2):
        for j in range(2):
            quad_val = models.one_dim_gram_quadrature(i, j, t)
            assert abs(quad_val - closed[i, j].real) <= 1e-15


def test_divergent_integral_is_refused():
    with pytest.raises(ConvergenceError):
        integrate_half_line(lambda y: 1.0 / (1.0 + y))
    with pytest.raises(ConvergenceError):
        integrate_real_line(lambda x: 1.0 / (1.0 + np.abs(x)))


def test_tail_beyond_the_window_is_refused():
    # c_alpha(1.036) decays as y^-1.072: the step-h and step-2h sums agree
    # to 6e-12, but the part beyond the window is 1.6e-11 of the integral,
    # and the term at the end of the window says so
    with pytest.raises(ConvergenceError, match="end of the window"):
        models.c_alpha(1.036)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_integrand_not_finite_at_a_node_is_refused(bad):
    f = lambda y: np.where(y < 1e3, 1.0 / (1.0 + y * y), bad)
    with pytest.raises(ConvergenceError, match="not finite"):
        integrate_half_line(f)
    with pytest.raises(ConvergenceError, match="not finite"):
        integrate_half_line_complex(lambda y: 1j * f(y))
    with pytest.raises(ConvergenceError, match="not finite"):
        integrate_real_line(f)
    # inf / inf at the largest node, written without guarding its overflow
    with pytest.raises(ConvergenceError, match="not finite"):
        integrate_half_line(lambda y: y ** 3 / (1.0 + y * y) ** 2)


# one-dimensional zero-range model -------------------------------------------

def test_one_dim_gram_diagonal_value(one_dim):
    # sqrt(t) / (2 (1 + t)) at t = 4 is 1/5
    g = one_dim.gram.at(4.0)
    assert g[0, 0] == pytest.approx(0.2, abs=1e-15)
    assert g[1, 1] == pytest.approx(0.2, abs=1e-15)
    assert g[0, 1] == 0.0 and g[1, 0] == 0.0


def test_one_dim_gram_at_parity_point(one_dim):
    np.testing.assert_allclose(one_dim.gram.at(0.0), np.diag([0.25, -0.25]),
                               atol=1e-15)


def test_one_dim_defect_norms_by_quadrature():
    # |h'|^2 = 2 int_0^inf e^(-2x)/4 dx = 1/4, and likewise for h''
    norm_even = integrate_real_line(lambda x: models.h_delta(x) ** 2)
    norm_odd = integrate_real_line(lambda x: models.h_delta_prime(x) ** 2)
    assert norm_even == pytest.approx(0.25, abs=1e-11)
    assert norm_odd == pytest.approx(0.25, abs=1e-11)


@pytest.mark.parametrize("t", [0.25, 0.5, 2.0, 4.0])
def test_one_dim_gram_quadrature_matches_closed_form(t):
    closed = models.one_dim_gram_closed(t)
    for i in range(2):
        for j in range(2):
            quad_val = models.one_dim_gram_quadrature(i, j, t)
            assert quad_val == pytest.approx(closed[i, j].real, abs=1e-8)


def test_one_dim_parity_gram_quadrature():
    closed = models.one_dim_gram_closed(0.0)
    for i in range(2):
        for j in range(2):
            quad_val = models.one_dim_gram_quadrature(i, j, 0.0)
            assert quad_val == pytest.approx(closed[i, j].real, abs=1e-10)


def test_one_dim_resolvent_closed_form_vs_quadrature(one_dim):
    for z in (-2.0, 0.7 + 0.9j, -0.5 + 0.3j):
        closed = models._one_dim_resolvent(z)
        # written as squares over y^2 - z, which stay finite at every node
        quad11 = (1.0 / np.pi) * integrate_half_line_complex(
            lambda y: (1.0 / (1 + y * y)) ** 2 / (y * y - z))
        quad22 = (1.0 / np.pi) * integrate_half_line_complex(
            lambda y: (y / (1 + y * y)) ** 2 / (y * y - z))
        assert closed[0, 0] == pytest.approx(quad11, rel=1e-10)
        assert closed[1, 1] == pytest.approx(quad22, rel=1e-10)


def test_one_dim_flags_and_overlap(one_dim):
    assert one_dim.psi_in_Hminus1 == (True, False)
    np.testing.assert_allclose(one_dim.spectral.overlap, np.diag([0.25, 0.25]),
                               atol=1e-15)


# point interactions ----------------------------------------------------------

def test_point_interaction_dimension_guard():
    with pytest.raises(ValueError):
        sx.build_point_interaction(4)


def test_point_overlap_three_d_value(point_models):
    # |h|^2 = (2 pi)^-3 4 pi int r^2/(1+r^2)^2 dr = 1/(8 pi)
    overlap = point_models[3].spectral.overlap[0, 0].real
    assert overlap == pytest.approx(1.0 / (8.0 * math.pi), abs=1e-12)


POINT_SAMPLES = [2.0 ** k for k in range(-3, 4)]


def point_gram_mpmath(d: int, t: float) -> mpmath.mpf:
    """The defining radial integral of (h, U_t h) at 40 digits."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        sphere = {1: 2, 2: 2 * mpmath.pi, 3: 4 * mpmath.pi}[d]
        integral = mpmath.quad(lambda r: r ** (d - 1) / ((1 + r * r) * (t * t + r * r)),
                               [0, 1, mpmath.inf])
        return t ** (2 - mpmath.mpf(d) / 2) * (2 * mpmath.pi) ** -d * sphere * integral


def point_gram_quadrature(d: int, t: float) -> float:
    """The same integral through the package's half-line quadrature."""
    integral = integrate_half_line(lambda r: r ** (d - 1) / ((1.0 + r * r) * (t * t + r * r)))
    return t ** (2.0 - d / 2.0) * (2.0 * math.pi) ** -d * models.SPHERE_SURFACE[d] * integral


@pytest.mark.parametrize("d", [1, 2, 3])
def test_point_gram_closed_form_matches_mpmath_and_quadrature(d, point_models):
    spec = point_models[d]
    for t in POINT_SAMPLES:
        got = spec.gram.at(t)[0, 0]
        assert got.imag == 0.0 and got.real == models.point_interaction_gram(d, t)
        want = point_gram_mpmath(d, t)
        assert abs(got.real - want) <= 1e-15 * want
        assert got.real == pytest.approx(point_gram_quadrature(d, t), rel=1e-11)
    overlap = spec.spectral.overlap[0, 0].real
    assert overlap == models.point_interaction_gram(d, 1.0)
    assert abs(overlap - point_gram_mpmath(d, 1.0)) <= 1e-15 * overlap
    assert overlap == pytest.approx(point_gram_quadrature(d, 1.0), rel=1e-11)


def test_point_d1_gram_matches_zero_range_channel(point_models, one_dim):
    for t in (0.5, 2.0, 8.0):
        assert point_models[1].gram.at(t)[0, 0].real == \
            pytest.approx(one_dim.gram.at(t)[0, 0].real, abs=1e-11)
    assert point_models[1].spectral.overlap[0, 0] == one_dim.spectral.overlap[0, 0] == 0.25


def test_point_resolvent_closed_forms(point_models):
    # partial fractions: E_1 = (u+2)/(4u(1+u)^2), E_2 from the log form,
    # E_3 = 1/(8 pi (1+u)^2) with u = sqrt(-z)
    for z in (-3.0, 0.4 + 1.2j, -0.5 + 0.3j):
        u = np.sqrt(-complex(z))
        expected = {
            1: (u + 2) / (4 * u * (1 + u) ** 2),
            2: (1 / (4 * np.pi)) * (-np.log(-complex(z)) / (1 + z) ** 2
                                    - 1 / (1 + complex(z))),
            3: 1 / (8 * np.pi * (1 + u) ** 2),
        }
        for d in (1, 2, 3):
            got = models.point_interaction_resolvent(d, z)
            assert got == pytest.approx(expected[d], rel=1e-10)


def test_point_membership_flags(point_models):
    assert point_models[1].psi_in_Hminus1 == (True,)
    assert point_models[2].psi_in_Hminus1 == (False,)
    assert point_models[3].psi_in_Hminus1 == (False,)


# p-adic model ----------------------------------------------------------------

def test_padic_parameter_guards():
    with pytest.raises(ValueError):
        sx.build_padic_model(4, 1.5)
    with pytest.raises(ValueError):
        sx.build_padic_model(2, 0.5)


def test_padic_gram_even_in_scale_shift():
    for m in (1, 2, 3):
        assert models.padic_gram(2, 1.5, m) == models.padic_gram(2, 1.5, -m)


def test_padic_overlap_is_unshifted_gram(padic):
    assert padic.spectral.overlap[0, 0].real == \
        pytest.approx(models.padic_gram(2, 1.5, 0), rel=1e-14)


def test_padic_solution_equals_independent_series(padic, padic_r):
    # independent oracle: partial fractions of the resolvent route give
    # r = (p-1) sum_N p^-N / (p^(alpha(1-N)) + 1)
    p, alpha = 2, 1.5
    total = 0.0
    for n in range(-200, 201):
        total += float(p) ** (-n) / (float(p) ** (alpha * (1 - n)) + 1.0)
    assert padic_r[0, 0].real == pytest.approx((p - 1) * total, rel=1e-12)


def test_padic_closed_form_only_above_one():
    assert sx.build_padic_model(2, 0.75).spectral.closed_form_M is None
    assert sx.build_padic_model(2, 1.5).spectral.closed_form_M is not None
    with pytest.raises(ValueError):
        models.padic_closed_form_m(2, 0.9)


def test_padic_three_gives_multiple_wavelets_per_scale():
    spec = sx.build_padic_model(3, 1.5)
    assert sx.validate_family(spec.family).ok
    # p - 1 = 2 wavelets per scale double the overlap series
    base = models.padic_gram(3, 1.5, 0) / 2.0
    total = 0.0
    for n in range(-200, 201):
        lam = 3.0 ** (1.5 * (1 - n))
        total += 3.0 ** (-n) / (lam + 1.0) ** 2
    assert base == pytest.approx(total, rel=1e-12)
    sol = sx.solve_homogeneous_R(spec.family, spec.gram)
    assert isinstance(sol, sx.UniqueSolution)


def test_padic_gram_refused_where_the_window_is_too_short():
    # at alpha = 0.51 the terms shrink by 2^-0.02 a scale as N -> -inf, so
    # 1e-15 lies far beyond the last scale of the window
    with pytest.raises(ConvergenceError):
        sx.build_padic_model(2, 0.51)
    with pytest.raises(ConvergenceError):  # a shift beyond the scale table
        models.padic_gram(2, 1.5, 1000)
    argv = ["model", "info", "--kind", "PAdicVladimirov", "--p", "2", "--alpha", "0.51"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) == 3


# scaling-invariant model -----------------------------------------------------

@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_c_alpha_matches_beta_function_identity(alpha):
    # oracle: int_0^inf y^(s-1)/(1+y^2) dy = (pi/2)/sin(pi s/2), s = 4 - 2 alpha
    s = 4.0 - 2.0 * alpha
    closed = (math.pi / 2.0) / math.sin(math.pi * s / 2.0)
    assert models.c_alpha(alpha) == pytest.approx(closed, abs=1e-9)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_h_norm_integral_matches_gamma_identity(alpha):
    closed = math.gamma(alpha) * math.gamma(2.0 - alpha) / 2.0
    assert models.h_norm_integral(alpha) == pytest.approx(closed, abs=1e-9)


def test_beta_three_halves_is_two():
    assert models.beta_alpha(1.5) == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
def test_beta_alpha_reciprocal_identity(alpha):
    # both quadratures reduce to Gamma functions; their ratio is 1/(alpha-1)
    assert models.beta_alpha(alpha) == pytest.approx(1.0 / (alpha - 1.0),
                                                     abs=1e-8)


@pytest.mark.parametrize("alpha", [1.01, 1.5, 1.9, 1.99])
def test_scaling_constants_match_mpmath(alpha):
    # c_alpha = Gamma(2-a) Gamma(a-1) / 2 and h_norm = Gamma(a) Gamma(2-a) / 2
    # in mpmath; the quadratures read 3.4e-10 and 3.4e-10 off at 1.01 and 1.99
    c_val, h_val = models.scaling_constants(alpha)
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        c_ref = mpmath.gamma(2 - a) * mpmath.gamma(a - 1) / 2
        h_ref = mpmath.gamma(a) * mpmath.gamma(2 - a) / 2
        assert abs(c_val - c_ref) <= 1e-15 * c_ref
        assert abs(h_val - h_ref) <= 1e-15 * h_ref
    spec = sx.build_scaling_invariant_3d(alpha)
    assert spec.spectral.overlap[0, 0] == pytest.approx(1.0, rel=1e-15)
    assert spec.predicted_R[0, 0].real == pytest.approx(-1.0 / (alpha - 1.0), rel=1e-15)
    assert spec.beta_alpha == pytest.approx(1.0 / (alpha - 1.0), rel=1e-15)


def test_scaling_constant_is_the_radial_constant_bit_for_bit():
    # c = pi / (2 sin(pi min(a - 1, 2 - a))) as written out, and -K/2 of the
    # radial kernel, reduce the sine's argument in different steps; both are
    # exact (Sterbenz), so the two agree to the bit
    alphas = np.random.default_rng(7).uniform(1.0, 2.0, 20_000).tolist()
    alphas += [np.nextafter(1.0, 2.0), np.nextafter(2.0, 1.0), 1.01, 1.5, 1.99, 0.5]
    for alpha in alphas:
        want = 0.5 * math.pi / math.sin(math.pi * min(alpha - 1.0, 2.0 - alpha))
        assert models.scaling_constants(alpha)[0] == want, alpha


def test_gram_limit_at_one_oracle():
    # finite-difference oracle: evaluate the quotient at t = 1 +- 1e-6
    for alpha in (1.3, 1.5, 1.9):
        for t in (1.0 + 1e-6, 1.0 - 1e-6):
            quotient = (t ** alpha - t ** (2 - alpha)) / (t * t - 1.0)
            assert models.gram_limit_at_one(alpha) == \
                pytest.approx(quotient, abs=1e-5)
    assert models.gram_limit_at_one(1.5) == pytest.approx(0.5, abs=1e-15)
    assert models.gram_limit_at_one(1.0 + 1e-9) == pytest.approx(0.0, abs=1e-8)


def test_scaling_gram_reciprocity_transform(scaling):
    # (h_j, U_{1/t} h_i) must equal the conjugate transpose entry at t
    for t in (0.25, 0.5, 2.0, 8.0):
        np.testing.assert_allclose(scaling.gram.at(1.0 / t),
                                   scaling.gram.at(t).conj().T, atol=1e-12)


def test_scaling_solution_and_beta(scaling, scaling_r):
    assert scaling.beta_alpha == pytest.approx(2.0, abs=1e-8)
    np.testing.assert_allclose(scaling_r, [[-2.0]], atol=1e-8)
    np.testing.assert_allclose(scaling_r, scaling.predicted_R, atol=1e-9)


def test_scaling_orthonormal_overlap_is_identity(scaling):
    np.testing.assert_allclose(scaling.spectral.overlap, np.eye(1), atol=1e-12)


def test_scaling_non_orthonormal_has_no_beta():
    spec = sx.build_scaling_invariant_3d(1.5, [[2.0, 0.0], [0.0, 1.0]])
    assert spec.beta_alpha is None
    assert spec.n == 2


def test_scaling_parameter_guards():
    with pytest.raises(ValueError):
        sx.build_scaling_invariant_3d(1.0)
    with pytest.raises(ValueError):
        sx.build_scaling_invariant_3d(2.0)
    with pytest.raises(ValueError):
        sx.build_scaling_invariant_3d(1.5, [[0.0, 1.0], [0.0, 0.0]])


def test_scaling_resolvent_at_minus_one_matches_overlap_scale(scaling):
    # E(-1)[0,0] = int r^2/(1+r^2)^3 / d_alpha = (pi/16)/(pi/4) = 1/4
    got = models.e_alpha(1.5, -1.0) / models.scaling_constants(1.5)[1]
    assert got == pytest.approx(0.25, rel=1e-10)


# cross-model invariants -------------------------------------------------------

def test_gram_entries_obey_cauchy_schwarz(one_dim, padic, scaling, point_models):
    specs = [one_dim, padic, scaling] + [point_models[d] for d in (1, 2, 3)]
    for spec in specs:
        bound = float(np.max(np.diag(spec.spectral.overlap).real))
        for t in spec.family.sample_points:
            assert float(np.abs(spec.gram.at(t)).max()) <= bound + 1e-12


def test_every_model_solves_to_expected_class(one_dim, padic, scaling, point_models):
    assert isinstance(sx.solve_homogeneous_R(one_dim.family, one_dim.gram),
                      sx.UniqueSolution)
    assert isinstance(sx.solve_homogeneous_R(padic.family, padic.gram),
                      sx.UniqueSolution)
    assert isinstance(sx.solve_homogeneous_R(scaling.family, scaling.gram),
                      sx.UniqueSolution)
    for d, expected in ((1, sx.UniqueSolution), (2, sx.NoSolution),
                        (3, sx.UniqueSolution)):
        spec = point_models[d]
        assert isinstance(sx.solve_homogeneous_R(spec.family, spec.gram), expected)


# registry and serialization ---------------------------------------------------

def test_model_from_json_round_trip():
    spec = sx.model_from_json({"kind": "PAdicVladimirov", "p": 2, "alpha": 1.5})
    assert spec.kind == "PAdicVladimirov"
    assert spec.params["p"] == 2
    with pytest.raises(ValueError):
        sx.model_from_json({"kind": "Nonexistent"})


def test_model_info_is_jsonable(one_dim, scaling):
    for spec in (one_dim, scaling):
        blob = json.dumps(sx.model_info(spec), sort_keys=True)
        decoded = json.loads(blob)
        assert decoded["kind"] == spec.kind
        assert decoded["psi_in_Hminus1"] == list(spec.psi_in_Hminus1)


def test_scaling_model_from_json_with_m_gram():
    spec = sx.model_from_json({
        "kind": "ScalingInvariant3D", "alpha": 1.5,
        "m_gram": [[2.0, 0.0], [0.0, 1.0]],
    })
    assert spec.n == 2
