"""Homogeneity system for the regularization matrix R.

A self-adjoint extension picked out by a Hermitian R is homogeneous
under the symmetry family exactly when R solves, for every sampled t,

    Xi(t) R - p(t) R Xi(t)^-1 = (1 - p(t)) G(t),

where Xi(t) = diag(xi_1(t), .., xi_n(t)) and the stored Gram function
has entries G(t)[i, j] = (h_j, U_t h_i).  The system decouples into one
scalar equation per entry,

    beta_ij(t) r_ij = (1 - p(t)) (h_j, U_t h_i),
    beta_ij(t) = xi_i(t) - p(t) / xi_j(t),

which is solved entry by entry so that inconsistencies can be reported
per entry.  Convention pinned by the one-dimensional zero-range model:
the solver must reproduce R = diag(1/2, -1/2) there.

Solution classes: no solution (no homogeneous extension transversal to
the unperturbed operator), a unique Hermitian R, or infinitely many
(some entries unconstrained; with p identically 1 the diagonal is
always free).  Verdicts rest on the sampled parameter set only; a
finite sample cannot certify the degenerate branch for every t.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .jsonio import encode_complex, encode_matrix
from .symmetry import DEFAULT_TOL, SymmetryFamily, check_tol
from .triplet import (as_matrix, frozen_matrix, hermitian_defect,
                      hermitian_within, within)


@dataclass(frozen=True, eq=False)
class GramFunction:
    """Sampled Gram data t -> G(t) with G(t)[i, j] = (h_j, U_t h_i)."""

    entries: Mapping[float, np.ndarray]

    def __post_init__(self):
        frozen = {float(t): frozen_matrix(mat) for t, mat in self.entries.items()}
        if not frozen:
            raise ValueError("Gram function needs at least one sample")
        if len({arr.shape[0] for arr in frozen.values()}) != 1:
            raise ValueError("Gram matrices must share one dimension")
        object.__setattr__(self, "entries", MappingProxyType(frozen))

    @property
    def samples(self) -> tuple[float, ...]:
        return tuple(self.entries.keys())

    @property
    def n(self) -> int:
        return next(iter(self.entries.values())).shape[0]

    def at(self, t: float) -> np.ndarray:
        return self.entries[float(t)]


def beta(fam: SymmetryFamily, i: int, j: int, t: float) -> float:
    """Coefficient beta_ij(t) = xi_i(t) - p(t)/xi_j(t) of the entry equation."""
    return fam.xi[i][t] - fam.p[t] / fam.xi[j][t]


@dataclass(frozen=True)
class NoSolution:
    detail: str = ""
    tag = "NoSolution"


@dataclass(frozen=True, eq=False)
class UniqueSolution:
    matrix: np.ndarray
    tag = "Unique"

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen_matrix(self.matrix))


@dataclass(frozen=True, eq=False)
class InfiniteSolutions:
    """Underdetermined system: fixed entries plus free index pairs.

    ``fixed_entries`` carries NaN at the free positions.
    """

    fixed_entries: np.ndarray
    free_indices: frozenset[tuple[int, int]]
    tag = "Infinite"

    def __post_init__(self):
        # NaN marks the free positions, so skip the finiteness coercion;
        # copy, so that the caller's array stays writable
        entries = np.array(self.fixed_entries)
        entries.setflags(write=False)
        object.__setattr__(self, "fixed_entries", entries)


SolutionClass = NoSolution | UniqueSolution | InfiniteSolutions


def solution_to_json(sol: SolutionClass) -> dict:
    if isinstance(sol, UniqueSolution):
        return {"tag": sol.tag, "R": encode_matrix(sol.matrix)}
    if isinstance(sol, InfiniteSolutions):
        fixed = [[None if (i, j) in sol.free_indices
                  else encode_complex(sol.fixed_entries[i, j])
                  for j in range(sol.fixed_entries.shape[1])]
                 for i in range(sol.fixed_entries.shape[0])]
        return {"tag": sol.tag, "fixed": fixed,
                "free": sorted(list(p) for p in sol.free_indices)}
    return {"tag": sol.tag, "detail": sol.detail}


def _entry_verdict(fam: SymmetryFamily, gram: GramFunction,
                   i: int, j: int, tol: float):
    """Solve one scalar entry; returns ('value', r), ('free', None) or ('bad', msg)."""
    rows = []
    for t in fam.sample_points:
        p_t = fam.p[t]
        b = beta(fam, i, j, t)
        rhs = (1.0 - p_t) * gram.at(t)[i, j]
        b_scale = abs(fam.xi[i][t]) + abs(p_t / fam.xi[j][t])
        rows.append((t, b, rhs, b_scale))
    pivot = max(rows, key=lambda row: abs(row[1]))
    if within(abs(pivot[1]), tol, pivot[3]):
        for t, b, rhs, _ in rows:
            if not within(abs(rhs), tol,
                          abs(1.0 - fam.p[t]) * float(np.abs(gram.at(t)).max())):
                return "bad", f"entry ({i},{j}): beta vanishes but rhs != 0 at t={t!r}"
        return "free", None
    candidate = pivot[2] / pivot[1]
    for t, b, rhs, _ in rows:
        resid = abs(b * candidate - rhs)
        if not within(resid, tol, max(abs(b), abs(rhs))):
            return "bad", (f"entry ({i},{j}): candidate from t={pivot[0]!r} "
                           f"violates the equation at t={t!r} (residual {resid:.3e})")
    return "value", candidate


def solve_homogeneous_R(fam: SymmetryFamily, gram: GramFunction,
                        tol: float = DEFAULT_TOL) -> SolutionClass:
    """Solve the homogeneity system for R over the sampled parameter set.

    Entry verdicts: a nonvanishing beta_ij at some t pins r_ij, which
    must then satisfy the equation at every sample (relative tolerance
    against max(|rhs|, |beta|, 1)); beta and rhs both vanishing at all t
    leaves the entry free.  Any inconsistent entry gives ``NoSolution``;
    free entries (with none inconsistent) give ``InfiniteSolutions``;
    otherwise the assembled matrix must be Hermitian and is returned as
    ``UniqueSolution``.
    """
    check_tol(tol)
    n = fam.n
    if gram.n != n:
        raise ValueError(f"Gram dimension {gram.n} != family channels {n}")
    missing = [t for t in fam.sample_points if t not in gram.entries]
    if missing:
        raise ValueError(f"Gram function lacks samples {missing!r}")
    matrix = np.zeros((n, n), dtype=complex)
    free: list[tuple[int, int]] = []
    problems: list[str] = []
    for i in range(n):
        for j in range(n):
            verdict, payload = _entry_verdict(fam, gram, i, j, tol)
            if verdict == "bad":
                problems.append(payload)
            elif verdict == "free":
                free.append((i, j))
                matrix[i, j] = np.nan
            else:
                matrix[i, j] = payload
    if problems:
        return NoSolution("; ".join(problems))
    if free:
        return InfiniteSolutions(matrix, frozenset(free))
    if not hermitian_within(matrix, 10 * tol):
        return NoSolution("assembled R is not Hermitian "
                          f"(defect {hermitian_defect(matrix):.3e})")
    matrix.setflags(write=False)  # fresh: frozen in place, stored without a copy
    return UniqueSolution(matrix)


def residual_homogeneous(fam: SymmetryFamily, gram: GramFunction,
                         reg) -> float:
    """Largest residual of Xi(t) R - p(t) R Xi(t)^-1 = (1-p(t)) G(t) over samples."""
    r = as_matrix(reg)
    worst = 0.0
    for t in fam.sample_points:
        xi = fam.xi_diag(t)
        lhs = xi @ r - fam.p[t] * r @ np.linalg.inv(xi)
        rhs = (1.0 - fam.p[t]) * gram.at(t)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


@dataclass(frozen=True)
class OnlyA0:
    """No homogeneous transversal extension: the unperturbed operator is
    simultaneously the Friedrichs and Krein-von Neumann extension."""

    tag = "OnlyA0"


@dataclass(frozen=True)
class AllHomogeneous:
    """Degenerate branch: every self-adjoint extension is homogeneous."""

    tag = "AllHomogeneous"


@dataclass(frozen=True)
class UniquePair:
    """Exactly two homogeneous extensions: the unperturbed operator and the
    admissible one labeled by which extreme extension it realizes."""

    r: float
    admissible_label: str
    tag = "UniquePair"


RankOneVerdict = OnlyA0 | AllHomogeneous | UniquePair

KREIN_VON_NEUMANN = "KreinVonNeumann"
FRIEDRICHS = "Friedrichs"


def classify_rank_one(fam: SymmetryFamily, gram: GramFunction,
                      psi_in_Hminus1: bool,
                      tol: float = DEFAULT_TOL) -> RankOneVerdict:
    """Trichotomy for rank-one perturbations.

    No solution of the homogeneity equation means the unperturbed
    operator is the only homogeneous nonnegative extension; at least two
    solutions mean every self-adjoint extension is homogeneous; a unique
    solution r yields exactly one admissible homogeneous operator, the
    Krein-von Neumann extension when the singular element lies outside
    the form domain scale (psi_in_Hminus1 False), the Friedrichs
    extension when inside (True).
    """
    if fam.n != 1:
        raise ValueError(f"rank-one classification needs n=1, got n={fam.n}")
    sol = solve_homogeneous_R(fam, gram, tol)
    if isinstance(sol, NoSolution):
        return OnlyA0()
    if isinstance(sol, InfiniteSolutions):
        return AllHomogeneous()
    r = sol.matrix[0, 0]
    label = FRIEDRICHS if psi_in_Hminus1 else KREIN_VON_NEUMANN
    return UniquePair(float(r.real), label)


def rank_one_to_json(verdict: RankOneVerdict) -> dict:
    if isinstance(verdict, UniquePair):
        return {"tag": verdict.tag, "r": verdict.r,
                "admissible": verdict.admissible_label}
    return {"tag": verdict.tag}
