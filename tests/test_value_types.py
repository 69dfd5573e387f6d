"""The frozen value types, their read-only arrays, and the one Hermiticity rule."""

import dataclasses
from collections.abc import Mapping

import numpy as np
import pytest

import singext as sx
from singext.triplet import HERMITICITY_RTOL, frozen_matrix, is_hermitian, within


def nearly_hermitian(rel_defect):
    """2x2 B whose Hermitian defect is rel_defect relative to its norm."""
    return np.array([[1.0, rel_defect], [0.0, 1.0]])


@pytest.fixture(scope="module")
def instances(one_dim, padic, padic_r, scaling):
    sol = sx.solve_homogeneous_R(one_dim.family, one_dim.gram)
    return {
        "SymmetryFamily": one_dim.family,
        "GramFunction": one_dim.gram,
        "UniqueSolution": sol,
        "InfiniteSolutions": sx.InfiniteSolutions(
            np.array([[np.nan, 1.0], [1.0, np.nan]], dtype=complex),
            frozenset({(0, 0), (1, 1)})),
        "SpectralModel": one_dim.spectral,
        "WeylEvaluation": sx.weyl_m(padic.spectral, padic_r, -1.0),
        "BoundaryCoordinates": sx.BoundaryCoordinates([1.0, 0.0], [0.5, 2.0]),
        "AdmissibleMatrix": sx.AdmissibleMatrix(sol.matrix),
        "CouplingMatrix": sx.CouplingMatrix([[0.0, 1.0], [2.0, 0.0]]),
        "RealizationSpec": sx.RealizationSpec([[1.0]], [[-2.0]]),
        "SMatrix": sx.s_matrix([[0.5]], 1.0),
        "ModelSpec": scaling,
    }


TYPE_NAMES = ["SymmetryFamily", "GramFunction", "UniqueSolution",
              "InfiniteSolutions", "SpectralModel", "WeylEvaluation",
              "BoundaryCoordinates", "AdmissibleMatrix", "CouplingMatrix",
              "RealizationSpec", "SMatrix", "ModelSpec"]


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_fields_are_frozen(instances, name):
    obj = instances[name]
    assert type(obj).__name__ == name
    for field in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field.name, None)


def test_stored_arrays_are_read_only(instances):
    arrays = [
        instances["AdmissibleMatrix"].matrix,
        instances["CouplingMatrix"].matrix,
        instances["UniqueSolution"].matrix,
        instances["InfiniteSolutions"].fixed_entries,
        *instances["GramFunction"].entries.values(),
        instances["SpectralModel"].overlap,
        instances["BoundaryCoordinates"].a,
        instances["BoundaryCoordinates"].b,
        instances["WeylEvaluation"].matrix,
        instances["SMatrix"].matrix,
        instances["ModelSpec"].predicted_R,
    ]
    for arr in arrays:
        assert isinstance(arr, np.ndarray)
        assert arr.flags.writeable is False
        with pytest.raises(ValueError):
            arr[0, ...] = 0.0


def test_realization_spec_coerces_matrices(instances):
    spec = instances["RealizationSpec"]
    assert isinstance(spec.B, sx.CouplingMatrix)
    assert isinstance(spec.R, sx.AdmissibleMatrix)


def test_model_spec_reads_membership_from_spectral_model(one_dim, scaling):
    assert one_dim.psi_in_Hminus1 is one_dim.spectral.psi_in_Hminus1
    assert scaling.psi_in_Hminus1 == (False,)


def test_within_is_relative_above_one_and_absolute_below():
    assert within(1e-10, 1e-10)
    assert not within(1.5e-10, 1e-10, 0.5)
    assert within(1.5e-10, 1e-10, 2.0)
    assert not within(2.5e-10, 1e-10, 2.0)


def test_admissible_matrix_has_no_tolerance_parameter():
    with pytest.raises(TypeError):
        sx.AdmissibleMatrix([[1.0]], tol=1.0)


def test_hermiticity_rule_accepts_small_defect_everywhere(one_dim):
    b = nearly_hermitian(0.5 * HERMITICITY_RTOL)
    assert is_hermitian(b)
    sx.AdmissibleMatrix(b)
    assert sx.is_selfadjoint_realization(b)
    r = sx.solve_homogeneous_R(one_dim.family, one_dim.gram).matrix
    sx.find_negative_eigenvalues(one_dim.spectral, r, b, (-2.0, -1.0))
    assert sx.s_matrix(b, 0.3).unitary is not None


def test_hermiticity_rule_rejects_larger_defect_everywhere(one_dim):
    b = nearly_hermitian(5 * HERMITICITY_RTOL)
    assert not is_hermitian(b)
    with pytest.raises(ValueError, match="Hermitian"):
        sx.AdmissibleMatrix(b)
    assert not sx.is_selfadjoint_realization(b)
    r = sx.solve_homogeneous_R(one_dim.family, one_dim.gram).matrix
    with pytest.raises(ValueError, match="Hermitian"):
        sx.find_negative_eigenvalues(one_dim.spectral, r, b, (-2.0, -1.0))
    assert sx.s_matrix(b, 0.3).unitary is None


def test_closed_form_residual_none_without_closed_form(scaling, scaling_r):
    assert scaling.spectral.closed_form_M is None
    assert sx.weyl_m(scaling.spectral, scaling_r, -1.0).closed_form_residual is None


def test_closed_form_residual_matches_closed_form(padic, padic_r):
    ev = sx.weyl_m(padic.spectral, padic_r, -0.5 + 0.25j)
    ref = padic.spectral.closed_form_M(-0.5 + 0.25j)
    expected = np.linalg.norm(ev.matrix - ref) / np.linalg.norm(ref)
    assert ev.closed_form_residual == pytest.approx(expected, rel=1e-12, abs=1e-300)
    assert ev.closed_form_residual <= 1e-10


def test_building_from_a_complex_array_copies_it():
    for build in (sx.CouplingMatrix, sx.AdmissibleMatrix,
                  lambda m: sx.SMatrix(0.5, m, 0.0, 1.0, None, None)):
        a = np.array([[1 + 0j, 2], [2, 3]])
        stored = build(a).matrix
        assert a.flags.writeable
        a[0, 0] = 5.0
        assert stored[0, 0] == 1.0
    v = np.array([1 + 0j, 2])
    coords = sx.BoundaryCoordinates(v, v)
    v[0] = 5.0
    assert coords.a[0] == coords.b[0] == 1.0
    fixed = np.array([[np.nan, 1.0], [1.0, np.nan]], dtype=complex)
    sx.InfiniteSolutions(fixed, frozenset({(0, 0), (1, 1)}))
    assert fixed.flags.writeable


def test_fresh_results_reach_the_value_type_read_only(one_dim, monkeypatch):
    # a read-only array is stored as is, so these results are not copied
    from singext import admissibility, spectra_scattering
    seen = []

    def spy(m):
        seen.append(m.flags.writeable)
        return frozen_matrix(m)

    monkeypatch.setattr(admissibility, "frozen_matrix", spy)
    monkeypatch.setattr(spectra_scattering, "frozen_matrix", spy)
    sol = sx.solve_homogeneous_R(one_dim.family, one_dim.gram)
    s = sx.s_matrix([[0.7, 0.1], [0.1, -0.3]], 0.4)
    assert seen == [False, False]
    assert not sol.matrix.flags.writeable and not s.matrix.flags.writeable


def equal_valued_copy(obj):
    """The same field values, with every stored array copied."""
    def fresh(value):
        if isinstance(value, np.ndarray):
            return value.copy()
        if isinstance(value, Mapping):
            return {k: fresh(v) for k, v in value.items()}
        return value
    return dataclasses.replace(obj, **{f.name: fresh(getattr(obj, f.name))
                                       for f in dataclasses.fields(obj)})


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_equality_never_raises(instances, name):
    obj = instances[name]
    assert obj == obj
    obj == equal_valued_copy(obj)
