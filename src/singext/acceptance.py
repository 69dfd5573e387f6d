"""Reference-value verification suite.

Each criterion reproduces concrete numbers of the four worked models at
a pinned tolerance and reports pass/fail with detail.  The suite is the
exit gate run by ``singext verify`` and mirrored by the acceptance test
module; all randomness is seeded for byte-stable behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models, weyl
from .admissibility import (NoSolution, UniqueSolution, classify_rank_one,
                            solve_homogeneous_R)
from .spectra_scattering import (is_homogeneous_realization, nonnegative_grid,
                                 s_matrix, s_matrix_grid, spectrum_ladder)
from .triplet import stacked_singular_values
from .weyl import check_weyl_homogeneity, weyl_m


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"number": int(self.number), "title": self.title,
                "passed": bool(self.passed), "detail": self.detail}


def _random_nonreal_z(rng, half_plane: bool = False) -> complex:
    im = rng.uniform(0.1, 2.0)
    if not half_plane:
        im *= rng.choice([-1.0, 1.0])
    return complex(rng.uniform(-2.0, 2.0), im)


def criterion_1() -> CriterionResult:
    """Zero-range model: the R solver gives diag(1/2, -1/2) to 1e-10."""
    spec = models.build_one_dim_model()
    sol = solve_homogeneous_R(spec.family, spec.gram)
    ok = isinstance(sol, UniqueSolution)
    detail = f"tag={sol.tag}"
    if ok:
        err = float(np.abs(sol.matrix - np.diag([0.5, -0.5])).max())
        ok = err <= 1e-10
        detail = f"max entry error {err:.3e} (tol 1e-10)"
    return CriterionResult(1, "zero-range solve-r gives diag(1/2, -1/2)", ok, detail)


def criterion_2() -> CriterionResult:
    """Scaling model: beta_3/2 = 2 to 1e-8, c_3/2 = pi/2 to 1e-9."""
    beta = models.beta_alpha(1.5)
    c_val = models.c_alpha(1.5)
    err_beta = abs(beta - 2.0)
    err_c = abs(c_val - math.pi / 2.0)
    ok = err_beta <= 1e-8 and err_c <= 1e-9
    return CriterionResult(
        2, "beta_3/2 = 2 and c_3/2 = pi/2 from quadrature", ok,
        f"|beta-2| = {err_beta:.3e} (tol 1e-8), |c - pi/2| = {err_c:.3e} (tol 1e-9)")


def criterion_3() -> CriterionResult:
    """Rank-one trichotomy across point interactions and the p-adic line."""
    checks = []
    for d, expect_tag, expect_label in ((1, "UniquePair", "Friedrichs"),
                                        (2, "OnlyA0", None),
                                        (3, "UniquePair", "KreinVonNeumann")):
        spec = models.build_point_interaction(d)
        verdict = classify_rank_one(spec.family, spec.gram,
                                    spec.psi_in_Hminus1[0])
        ok = verdict.tag == expect_tag
        if ok and expect_label is not None:
            ok = verdict.admissible_label == expect_label
        checks.append((f"d={d}", ok, verdict.tag))
    padic = models.build_padic_model(2, 1.0)
    sol = solve_homogeneous_R(padic.family, padic.gram)
    checks.append(("p-adic alpha=1", isinstance(sol, NoSolution), sol.tag))
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name}: {tag}" for name, _, tag in checks)
    return CriterionResult(3, "rank-one trichotomy (d=1,2,3; p-adic alpha=1)",
                           ok, detail)


def criterion_4() -> CriterionResult:
    """p-adic closed-form Weyl homogeneity, and its failure under a 1% R shift."""
    spec = models.build_padic_model(2, 1.5)
    sol = solve_homogeneous_R(spec.family, spec.gram)
    r = sol.matrix
    closed = spec.spectral.closed_form_M
    perturbed = lambda z: weyl_m(spec.spectral, 1.01 * r, z).matrix
    rng = np.random.default_rng(20240 + 4)
    worst_true = 0.0
    worst_pert = 0.0
    for _ in range(20):
        z = _random_nonreal_z(rng)
        for t in (2.0, 4.0, 8.0):
            worst_true = max(worst_true,
                             check_weyl_homogeneity(closed, spec.family, z, t))
            worst_pert = max(worst_pert,
                             check_weyl_homogeneity(perturbed, spec.family, z, t))
    ok = worst_true <= 1e-8 and worst_pert > 1e-2
    return CriterionResult(
        4, "p-adic Weyl homogeneity holds, and breaks under perturbed R", ok,
        f"max residual {worst_true:.3e} (tol 1e-8); "
        f"perturbed max residual {worst_pert:.3e} (must exceed 1e-2)")


def _weyl_backends():
    """Model instances with a Weyl backend: (name, spectral model, R)."""
    instances = []
    for name, spec in (("one-dim", models.build_one_dim_model()),
                       ("point d=1", models.build_point_interaction(1)),
                       ("point d=3", models.build_point_interaction(3)),
                       ("p-adic 2,3/2", models.build_padic_model(2, 1.5)),
                       ("scaling 3/2", models.build_scaling_invariant_3d(1.5))):
        sol = solve_homogeneous_R(spec.family, spec.gram)
        instances.append((name, spec.spectral, sol.matrix))
    return instances


def criterion_5() -> CriterionResult:
    """Conjugate symmetry to 1e-12 and Herglotz positivity to 1e-10.

    Each backend's 50 M(z) and 50 M(conj z) are scalar ``weyl_m`` calls,
    stacked for one max-abs and one stacked eigenvalue check.
    """
    rng = np.random.default_rng(20240 + 5)
    worst_conj = 0.0
    worst_herglotz = 0.0
    for name, spectral, r in _weyl_backends():
        ups, downs = [], []
        for _ in range(50):
            z = _random_nonreal_z(rng, half_plane=True)
            ups.append(weyl_m(spectral, r, z).matrix)
            downs.append(weyl_m(spectral, r, np.conj(z)).matrix)
        m_up, m_down = np.array(ups), np.array(downs)
        worst_conj = max(worst_conj, float(
            np.abs(m_down - m_up.conj().swapaxes(-2, -1)).max()))
        worst_herglotz = max(worst_herglotz,
                             -weyl.hermitian_imag_min_eig(m_up))
    ok = worst_conj <= 1e-12 and worst_herglotz <= 1e-10
    return CriterionResult(
        5, "Weyl conjugate symmetry and Herglotz positivity on 5 backends", ok,
        f"max |M(conj z) - M(z)*| = {worst_conj:.3e} (tol 1e-12); "
        f"worst negative Im-eigenvalue = {worst_herglotz:.3e} (tol 1e-10)")


def negative_axis_root_oracle(m_values: np.ndarray, b) -> np.ndarray:
    """Eigenvalue-existence oracle from a dense scan of a scalar Weyl function.

    ``m_values`` samples M on a grid over [x_lo, x_hi] of the negative
    axis.  A root of b - M(x) is detected where b - M vanishes at a grid
    point or changes sign between neighbours, which happens exactly when
    min M <= b <= max M over the grid (the samples are joined by a path
    through every value in between), plus the boundary behavior of the
    monotone M on the spectral gap: M decays to 0 toward -infinity, so
    0 < b < M(x_lo) marks a root off the left edge, and M increasing into
    the essential-spectrum edge means b > M(x_hi) marks a root off the
    right edge.  ``b`` may be an array; the verdicts take its shape.
    """
    b = np.asarray(b, dtype=float)
    first, last = m_values[0], m_values[-1]
    return (((m_values.min() <= b) & (b <= m_values.max()))
            | ((0.0 < b) & (b < first)) | ((b > last) & (last > 0.0)))


def criterion_6() -> CriterionResult:
    """Nonnegativity criterion vs the negative-axis eigenvalue-scan oracle.

    The scan is one ``weyl_m_grid`` call over 10^4 points of [-50, -1e-4],
    and the 200 couplings b are decided by one stacked nonnegativity
    kernel call (``nonnegative_grid``) and one oracle call.  The grid
    agrees with scalar ``weyl_m`` to rounding; no swept b lies within
    1e-9 of a scanned M value, so the oracle gives the scalar scan's
    verdicts.
    """
    spec = models.build_scaling_invariant_3d(1.5)
    sol = solve_homogeneous_R(spec.family, spec.gram)
    r = sol.matrix
    if abs(r[0, 0] - (-2.0)) > 1e-8:
        return CriterionResult(6, "nonnegativity criterion vs root-scan oracle",
                               False, f"R = {r[0, 0]!r} is not -2")
    xs = np.linspace(-50.0, -1e-4, 10 ** 4)
    m_values = weyl.weyl_m_grid(spec.spectral, r, xs)[:, 0, 0].real
    bs = np.linspace(-5.0, 5.0, 200)
    bs = bs[np.minimum(np.abs(bs), np.abs(bs - 0.5)) > 1e-3]
    verdicts = nonnegative_grid(bs.reshape(-1, 1, 1), r)
    oracle = ~negative_axis_root_oracle(m_values, bs)
    disagreements = bs[verdicts != oracle].tolist()
    ok = not disagreements
    detail = ("all 200 sweep points agree" if ok
              else f"disagreements at b = {disagreements}")
    return CriterionResult(6, "nonnegativity criterion vs root-scan oracle",
                           ok, detail)


def criterion_7() -> CriterionResult:
    """S-matrix unitarity on the real line, identity at 0, contractivity.

    The 100 seeded (n, B, delta) draws are grouped by n into one
    ``s_matrix_grid`` call each; the contractivity sweep makes one call
    per b over the 20 x 20 grid.
    """
    rng = np.random.default_rng(20240 + 7)
    draws = {}
    for _ in range(100):
        n = int(rng.integers(1, 5))
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = (raw + raw.conj().T) / 2
        delta = rng.uniform(-10.0, 10.0)
        bs, deltas = draws.setdefault(n, ([], []))
        bs.append(b)
        deltas.append(delta)
    worst_unitary = 0.0
    for n, (bs, deltas) in draws.items():
        # the defect of each 2-D matrix: a stacked norm(..., axis=(-2, -1))
        # rounds differently in the last bit of the printed defect
        for s in s_matrix_grid(np.array(bs), deltas):
            worst_unitary = max(worst_unitary, float(
                np.linalg.norm(s.conj().T @ s - np.eye(n))))
    identity_exact = bool(
        np.array_equal(s_matrix(np.array([[0.7]]), 0.0).matrix, np.eye(1)))
    worst_sv = 0.0
    res = np.linspace(-10.0, 10.0, 20)
    ims = np.linspace(0.05, 10.0, 20)
    grid = res[:, None] + 1j * ims[None, :]
    # one call per b: a single call over a (k, 1, 1, 1, 1) stack of the
    # ~100 b was no faster in perfbench's verify workload, and criterion
    # 6 read 12% slower there after it (BENCH_22.json)
    for b in np.linspace(-5.0, 5.0, 200):
        if not (b <= 0.0 and abs(b) > 1e-3):
            continue
        s = s_matrix_grid(np.array([[b]]), grid)
        worst_sv = max(worst_sv, float(stacked_singular_values(s)[..., 0].max()))
    ok = worst_unitary <= 1e-12 and identity_exact and worst_sv <= 1.0 + 1e-10
    return CriterionResult(
        7, "S-matrix unitarity, S(0) = I, upper half-plane contractivity", ok,
        f"max unitarity defect {worst_unitary:.3e} (tol 1e-12); "
        f"S(0) identity: {identity_exact}; "
        f"max singular value {worst_sv:.12f} (tol 1+1e-10)")


def criterion_8() -> CriterionResult:
    """p-adic homogeneity only at B = 0; exact ladder shift covariance."""
    bs = np.linspace(-5.0, 5.0, 41)
    flags = is_homogeneous_realization(bs.reshape(-1, 1, 1),
                                       models.build_padic_model(2, 1.5).family)
    mismatches = bs[flags != (bs == 0.0)].tolist()
    base = spectrum_ladder(-1.0, 4.0, (-2, 2))
    shifted = spectrum_ladder(-1.0, 4.0, (-1, 3))
    covariant = [v * 4.0 for v in base] == shifted
    ok = not mismatches and covariant
    return CriterionResult(
        8, "p-adic homogeneous only at B = 0; ladder shift covariance exact",
        ok,
        f"homogeneity mismatches: {mismatches or 'none'}; "
        f"ladder covariance exact: {covariant}")


def criterion_9() -> CriterionResult:
    """Backend consistency: p-adic closed form vs resolvent route; 1D Gram
    quadrature vs closed form."""
    spec = models.build_padic_model(2, 1.5)
    sol = solve_homogeneous_R(spec.family, spec.gram)
    rng = np.random.default_rng(20240 + 9)
    worst_m = 0.0
    z_grid = [complex(-3.0), complex(-0.5)] + [
        _random_nonreal_z(rng) for _ in range(10)]
    for z in z_grid:
        worst_m = max(worst_m,
                      weyl_m(spec.spectral, sol.matrix, z).closed_form_residual)
    worst_gram = 0.0
    for t in (0.25, 0.5, 2.0, 4.0):
        closed = models.one_dim_gram_closed(t)
        for i in range(2):
            for j in range(2):
                quad_val = models.one_dim_gram_quadrature(i, j, t)
                worst_gram = max(worst_gram,
                                 abs(quad_val - closed[i, j].real))
    ok = worst_m <= 1e-6 and worst_gram <= 1e-8
    return CriterionResult(
        9, "p-adic closed form vs resolvent data; 1D Gram quadrature vs closed",
        ok,
        f"max relative Weyl discrepancy {worst_m:.3e} (tol 1e-6); "
        f"max Gram discrepancy {worst_gram:.3e} (tol 1e-8)")


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}


def run_criteria(numbers=None) -> list[CriterionResult]:
    """Run the requested criteria (all by default), in numeric order."""
    selected = sorted(CRITERIA) if numbers is None else sorted(set(numbers))
    unknown = [k for k in selected if k not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria {unknown!r}")
    return [CRITERIA[k]() for k in selected]
