import numpy as np
import pytest

import singext as sx
from singext.errors import InsufficientDataError
from singext.symmetry import NotPowerLaw, PowerLaw, SymmetryFamily


def scaling_family(xi_exponent, samples=(2.0, 0.5)):
    """Rank-one family p(t) = t^-2, xi(t) = t^xi_exponent on an involutive grid."""
    return SymmetryFamily(
        samples,
        {t: 1.0 / t for t in samples},
        {t: t ** -2.0 for t in samples},
        [{t: t ** xi_exponent for t in samples}],
    )


def test_three_d_delta_family_valid():
    # the delta channel in three dimensions scales with exponent -3/2,
    # strictly between p(t) = t^-2 and 1
    fam = scaling_family(-1.5)
    assert sx.validate_family(fam).ok


def test_identity_family_valid():
    samples = (2.0, 0.5)
    fam = SymmetryFamily(
        samples,
        {2.0: 0.5, 0.5: 2.0},
        {t: 1.0 for t in samples},
        [{t: 1.0 for t in samples}],
    )
    assert sx.validate_family(fam).ok


def test_modulus_bound_violation_reported():
    # xi(t) = t^-3 at t = 2 gives |xi| = 1/8 below p(2) = 1/4
    report = sx.validate_family(scaling_family(-3.0))
    assert not report.ok
    hits = [v for v in report.violations if v.rule == "modulus-bound" and v.t == 2.0]
    assert hits and hits[0].channel == 0


def test_unimodular_rule_when_p_is_one():
    samples = (3.0, 1.0 / 3.0)
    fam = SymmetryFamily(
        samples,
        {3.0: 1.0 / 3.0, 1.0 / 3.0: 3.0},
        {t: 1.0 for t in samples},
        [{3.0: 2.0, 1.0 / 3.0: 0.5}],
    )
    report = sx.validate_family(fam)
    assert any(v.rule == "unimodular-at-p1" for v in report.violations)


def test_reciprocity_violations_reported():
    samples = (2.0, 0.5)
    fam = SymmetryFamily(
        samples,
        {2.0: 0.5, 0.5: 2.0},
        {2.0: 0.25, 0.5: 3.0},
        [{2.0: 0.5, 0.5: 2.0}],
    )
    report = sx.validate_family(fam)
    assert any(v.rule == "p-reciprocity" for v in report.violations)


def test_involution_violation_reported():
    samples = (2.0, 0.5, 4.0)
    fam = SymmetryFamily(
        samples,
        {2.0: 0.5, 0.5: 4.0, 4.0: 0.5},
        {t: t ** -2.0 for t in samples},
        [{t: t ** -1.5 for t in samples}],
    )
    report = sx.validate_family(fam)
    assert any(v.rule == "involution" for v in report.violations)


def test_zero_factors_rejected():
    samples = (2.0, 0.5)
    conj = {2.0: 0.5, 0.5: 2.0}
    with pytest.raises(ValueError):
        sx.validate_family(SymmetryFamily(
            samples, conj, {2.0: 0.0, 0.5: 1.0}, [{t: 1.0 for t in samples}]))
    with pytest.raises(ValueError):
        sx.validate_family(SymmetryFamily(
            samples, conj, {t: 1.0 for t in samples}, [{2.0: 0.0, 0.5: 1.0}]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("field", ["sample", "conjugate", "p", "xi"])
def test_non_finite_data_rejected(field, bad):
    # a NaN fails every comparison: a family holding one would pass
    # validate_family and make is_homogeneous_realization true for any B
    samples = [2.0, 0.5]
    data = {"conjugate": {2.0: 0.5, 0.5: 2.0}, "p": {2.0: 0.25, 0.5: 4.0},
            "xi": {2.0: 2.0 ** -1.5, 0.5: 0.5 ** -1.5}}
    if field == "sample":
        # defined everywhere, so that only the point itself is at fault
        samples.append(bad)
        data["conjugate"][bad], data["p"][bad], data["xi"][bad] = bad, 1.0, 1.0
    else:
        data[field][2.0] = bad
    with pytest.raises(ValueError, match="not finite"):
        SymmetryFamily(samples, data["conjugate"], data["p"], [data["xi"]])


@pytest.mark.parametrize("obj", [
    {"kind": "OneDimDeltaDeltaPrime"},
    *({"kind": "PointInteractionRd", "d": d} for d in (1, 2, 3)),
    *({"kind": "PAdicVladimirov", "p": p, "alpha": a}
      for p, a in ((2, 1.5), (3, 0.75), (2, 1.0), (5, 2.5))),
    {"kind": "ScalingInvariant3D", "alpha": 1.5},
    {"kind": "ScalingInvariant3D", "alpha": 1.25, "n": 3},
], ids=lambda obj: "-".join(map(str, obj.values())))
def test_built_in_models_have_finite_symmetry_data(obj):
    fam = sx.model_from_json(obj).family
    values = [fam.conjugate, fam.p, *fam.xi]
    assert all(np.isfinite([t] + [m[t] for m in values]).all() for t in fam.sample_points)


def test_validation_order_independent_and_idempotent():
    fam = scaling_family(-3.0)
    permuted = SymmetryFamily(tuple(reversed(fam.sample_points)),
                              fam.conjugate, fam.p, fam.xi)
    key = lambda rep: sorted((v.t, v.channel, v.rule) for v in rep.violations)
    assert key(sx.validate_family(fam)) == key(sx.validate_family(permuted))
    assert key(sx.validate_family(fam)) == key(sx.validate_family(fam))


@pytest.mark.parametrize("fixture", ["one_dim", "padic", "scaling"])
def test_built_model_families_validate(request, fixture, point_models):
    spec = request.getfixturevalue(fixture)
    assert sx.validate_family(spec.family).ok
    for d in (1, 2, 3):
        assert sx.validate_family(point_models[d].family).ok


def test_reciprocal_identities_hold_exactly(one_dim):
    fam = one_dim.family
    for t in fam.sample_points:
        g = fam.conjugate[t]
        assert fam.p[t] * fam.p[g] == pytest.approx(1.0, abs=1e-14)
        for m in fam.xi:
            assert m[t] * m[g] == pytest.approx(1.0, abs=1e-14)


# power-law classification -------------------------------------------------

def test_power_law_delta_exponent():
    # the delta function scales with exponent 3/2
    verdict = sx.classify_power_law([(2.0, 2.0 ** -1.5), (4.0, 4.0 ** -1.5)])
    assert isinstance(verdict, PowerLaw)
    assert verdict.alpha == pytest.approx(1.5, abs=1e-12)


def test_power_law_alpha_zero_excluded():
    verdict = sx.classify_power_law([(2.0, 1.0), (4.0, 1.0)])
    assert isinstance(verdict, NotPowerLaw)


def test_power_law_alpha_above_two_excluded():
    verdict = sx.classify_power_law([(2.0, 2.0 ** -2.5), (4.0, 4.0 ** -2.5)])
    assert isinstance(verdict, NotPowerLaw)


def test_power_law_non_power_data():
    verdict = sx.classify_power_law([(2.0, 0.5), (4.0, 0.5)])
    assert isinstance(verdict, NotPowerLaw)


def test_power_law_insufficient_data():
    with pytest.raises(InsufficientDataError):
        sx.classify_power_law([(2.0, 0.5)])
    with pytest.raises(InsufficientDataError):
        sx.classify_power_law([(1.0, 1.0), (1.0, 1.0)])


def test_power_law_rejects_nonpositive_samples():
    with pytest.raises(ValueError):
        sx.classify_power_law([(2.0, -0.5), (4.0, 0.5)])
    with pytest.raises(ValueError):
        sx.classify_power_law([(-2.0, 0.5), (4.0, 0.5)])


@pytest.mark.parametrize("alpha", np.linspace(0.1, 1.9, 7))
def test_power_law_recovery_on_grid(alpha):
    grid = [2.0 ** k for k in (-2, -1, 1, 2, 3)]
    verdict = sx.classify_power_law([(t, t ** -alpha) for t in grid])
    assert isinstance(verdict, PowerLaw)
    assert verdict.alpha == pytest.approx(alpha, abs=1e-12)
