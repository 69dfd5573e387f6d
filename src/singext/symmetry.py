"""One-parameter symmetry families and power-law classification.

A symmetry family records, over a finite sample set of parameters t, the
scalar footprint of a family of unitary operators U_t: the homogeneity
factor p(t) of the unperturbed operator (U_t A0 = p(t) A0 U_t), the
per-channel invariance factors xi_j(t) of the singular elements
(U_t psi_j = xi_j(t) psi_j), and the conjugation map g with
U_{g(t)} = U_t*.  Consistency of such a family forces

    p(t) p(g(t)) = 1,        xi_j(t) xi_j(g(t)) = 1,

and, channel by channel, |xi_j(t)| = 1 when p(t) = 1 while
min{1, p(t)} < |xi_j(t)| < max{1, p(t)} when p(t) != 1.

``classify_power_law`` implements the classification of invariance
factors admitting singular invariant elements under scaling
transformations in three dimensions: xi(t) = t^(-alpha) with exponent
strictly inside (0, 2); anything else supports none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import InsufficientDataError

DEFAULT_TOL = 1e-10


def check_tol(tol: float) -> float:
    """The rule of every tolerance argument: a finite number above 0.

    Returns ``tol``; NaN, infinity, 0 or below raise ``ValueError``.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"need a finite tol above 0, got {tol!r}")
    return tol


def _freeze(mapping: Mapping[float, float]) -> Mapping[float, float]:
    return MappingProxyType({float(k): float(v) for k, v in mapping.items()})


@dataclass(frozen=True)
class SymmetryFamily:
    """Sampled symmetry data (p, xi_1..xi_n, g) over a finite parameter set.

    Parameters
    ----------
    sample_points : iterable of float
        The finite parameter set; must be closed under the conjugation map.
    conjugate : mapping t -> g(t)
        Involutive conjugation within the sample set (U_{g(t)} = U_t*).
    p : mapping t -> float
        Homogeneity factor of the unperturbed operator at each sample.
    xi : sequence of mappings t -> float
        Per-channel invariance factors of the singular elements.
    """

    sample_points: tuple[float, ...]
    conjugate: Mapping[float, float]
    p: Mapping[float, float]
    xi: tuple[Mapping[float, float], ...]

    def __post_init__(self):
        pts = tuple(float(t) for t in self.sample_points)
        object.__setattr__(self, "sample_points", pts)
        object.__setattr__(self, "conjugate", _freeze(self.conjugate))
        object.__setattr__(self, "p", _freeze(self.p))
        object.__setattr__(self, "xi", tuple(_freeze(m) for m in self.xi))
        if not pts:
            raise ValueError("sample_points must be nonempty")
        if not self.xi:
            raise ValueError("at least one channel is required")
        for t in pts:
            for name, mapping in (("conjugate", self.conjugate), ("p", self.p)):
                if t not in mapping:
                    raise KeyError(f"{name} is not defined at t={t!r}")
            for j, m in enumerate(self.xi):
                if t not in m:
                    raise KeyError(f"xi[{j}] is not defined at t={t!r}")

    @property
    def n(self) -> int:
        """Number of channels."""
        return len(self.xi)

    def xi_diag(self, t: float) -> np.ndarray:
        """Diagonal matrix diag(xi_1(t), ..., xi_n(t))."""
        return np.diag([m[t] for m in self.xi]).astype(complex)

    def to_json_dict(self) -> dict:
        return {
            "samples": list(self.sample_points),
            "conjugate": {repr(t): self.conjugate[t] for t in self.sample_points},
            "p": {repr(t): self.p[t] for t in self.sample_points},
            "xi": [
                {repr(t): m[t] for t in self.sample_points} for m in self.xi
            ],
        }


@dataclass(frozen=True)
class Violation:
    """One violated consistency rule at one sample point."""

    t: float
    channel: int | None
    rule: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate_family(fam: SymmetryFamily, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check a symmetry family against the reciprocity and modulus rules.

    Degenerate data (p(t) = 0 or xi_j(t) = 0) is rejected with a
    ``ValueError`` since every rule below divides by these factors; all
    other violations are collected into the returned report.  The strict
    modulus bounds are flagged only when |xi| falls outside the closed
    interval by more than ``tol``.
    """
    check_tol(tol)
    found: list[Violation] = []
    sample_set = set(fam.sample_points)
    for t in fam.sample_points:
        p_t = fam.p[t]
        if p_t == 0.0:
            raise ValueError(f"p(t) must be nonzero (t={t!r})")
        for j, m in enumerate(fam.xi):
            if m[t] == 0.0:
                raise ValueError(f"xi[{j}](t) must be nonzero (t={t!r})")
        g_t = fam.conjugate[t]
        if g_t not in sample_set:
            found.append(Violation(t, None, "involution",
                                   f"g(t)={g_t!r} is not a sample point"))
            continue
        if abs(fam.conjugate[g_t] - t) > tol:
            found.append(Violation(t, None, "involution",
                                   f"g(g(t))={fam.conjugate[g_t]!r} != t"))
            continue
        if abs(p_t * fam.p[g_t] - 1.0) > tol:
            found.append(Violation(t, None, "p-reciprocity",
                                   f"p(t)p(g(t)) = {p_t * fam.p[g_t]!r}"))
        for j, m in enumerate(fam.xi):
            if abs(m[t] * m[g_t] - 1.0) > tol:
                found.append(Violation(t, j, "xi-reciprocity",
                                       f"xi(t)xi(g(t)) = {m[t] * m[g_t]!r}"))
            mod = abs(m[t])
            if abs(p_t - 1.0) <= tol:
                if abs(mod - 1.0) > tol:
                    found.append(Violation(t, j, "unimodular-at-p1",
                                           f"|xi| = {mod!r} with p(t)=1"))
            else:
                lo, hi = min(1.0, p_t), max(1.0, p_t)
                if mod <= lo - tol or mod >= hi + tol:
                    found.append(Violation(
                        t, j, "modulus-bound",
                        f"|xi| = {mod!r} outside ({lo!r}, {hi!r})"))
    return ValidationReport(tuple(found))


@dataclass(frozen=True)
class PowerLaw:
    alpha: float


@dataclass(frozen=True)
class NotPowerLaw:
    reason: str


def classify_power_law(samples: Iterable[tuple[float, float]],
                       tol: float = DEFAULT_TOL) -> PowerLaw | NotPowerLaw:
    """Decide whether sampled invariance factors follow xi(t) = t^(-alpha).

    Returns ``PowerLaw(alpha)`` when log xi(t) = -alpha log t fits every
    sample within ``tol`` (absolute, in log space) and the exponent lies
    strictly inside (0, 2); otherwise ``NotPowerLaw``.  Exponents at or
    outside the interval boundaries support no singular invariant
    element, and are classified accordingly.
    """
    check_tol(tol)
    pts = [(float(t), float(x)) for t, x in samples]
    for t, x in pts:
        if t <= 0 or x <= 0:
            raise ValueError("samples must have t > 0 and xi(t) > 0")
    if len({t for t, _ in pts}) < 2:
        raise InsufficientDataError(
            "at least two distinct parameter values are required")
    logs = [(math.log(t), math.log(x)) for t, x in pts]
    lt_ref, lx_ref = max(logs, key=lambda pair: abs(pair[0]))
    if lt_ref == 0.0:
        raise InsufficientDataError("all samples sit at t = 1")
    alpha = -lx_ref / lt_ref
    for lt, lx in logs:
        if abs(lx + alpha * lt) > tol:
            return NotPowerLaw("samples deviate from a single power law")
    if alpha <= 0.0 or alpha >= 2.0:
        return NotPowerLaw(f"exponent {alpha!r} outside (0, 2)")
    return PowerLaw(alpha)
