"""Weyl functions, the homogeneity identity, and Krein-formula spectra.

Spectral data of a model enters through Mhat(z), the Weyl function of
the plain defect-coordinate triplet in the defect basis h_1..h_n.  The
Weyl function of the regularized triplet attached to R follows by the
linear fractional transform M(z) = -(R + Mhat(z))^-1: ``weyl_m`` forms
R + Mhat(z) at one z, ``weyl_m_grid`` at every point of an array of z.
Each backend gives Mhat in closed form or as its own series
(``models``); the resolvent Gram matrix E(z) and the overlap, which
give Mhat(z) = (z + 1) (overlap + (z + 1) E(z)), stay with the models
as the independent check.

For a homogeneous regularization the Weyl function obeys

    p(t) M(z) = Xi(t) M(p(t) z) Xi(t),

and eigenvalues of a self-adjoint realization below the spectrum are
the roots of det(B - M(x)) on the negative axis, with
(B - M(z))^-1 the finite-rank kernel of the resolvent difference in
Krein's formula.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, PoleError
from .symmetry import DEFAULT_TOL, SymmetryFamily, check_tol
from .triplet import (POLE_RTOL, as_matrix, frozen_matrix, hermitian_within,
                      invert_or_refuse_poles, refuse_stacked_poles,
                      stacked_singular_values, within)


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Per-model spectral backend in the defect basis h_1..h_n.

    Parameters
    ----------
    n : int
        Channel count.
    m_hat : callable z -> (n, n) complex array
        Mhat(z), the Weyl function of the plain defect-coordinate triplet,
        at one finite complex z (a scalar is taken as 1x1 for n = 1); must
        satisfy Mhat(z)* = Mhat(conj z).  It equals
        (z + 1) (overlap + (z + 1) E(z)) with E(z)[i, j] =
        ((A0 - z)^-1 h_j, h_i), and vanishes at z = -1.
    overlap : (n, n) array
        (h_j, h_i); Hermitian positive definite, identity for
        orthonormal channels.
    psi_in_Hminus1 : tuple of bool
        Per channel, whether the singular element lies in the form
        domain scale (order -1) rather than only in order -2.
    closed_form_M : callable z -> (n, n) array, optional
        Independent closed form of the Weyl function, used for
        cross-checks when present.
    m_hat_grid : callable z -> z.shape + (n, n) array, optional
        The array form of ``m_hat``: Mhat at every point of a finite
        complex array z, with the same branch rules and errors, for
        ``weyl_m_grid``.  Without it ``weyl_m_grid`` loops over ``m_hat``.
    """

    n: int
    m_hat: Callable[[complex], np.ndarray]
    overlap: np.ndarray
    psi_in_Hminus1: tuple[bool, ...]
    closed_form_M: Callable[[complex], np.ndarray] | None = None
    m_hat_grid: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        overlap = frozen_matrix(self.overlap)
        if overlap.shape[0] != self.n:
            raise ValueError("overlap dimension disagrees with channel count")
        if not hermitian_within(overlap):
            raise ValueError("overlap must be Hermitian")
        if float(np.linalg.eigvalsh(overlap).min()) <= 0:
            raise ValueError("overlap must be positive definite")
        if len(self.psi_in_Hminus1) != self.n:
            raise ValueError("one membership flag per channel is required")
        object.__setattr__(self, "overlap", overlap)


@dataclass(frozen=True, eq=False)
class WeylEvaluation:
    """Weyl matrix at one spectral point, with the model's closed form if any."""

    z: complex
    matrix: np.ndarray
    closed_form_M: Callable[[complex], np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen_matrix(self.matrix))

    @classmethod
    def _fresh(cls, z: complex, matrix: np.ndarray,
               closed_form_M: Callable[[complex], np.ndarray] | None):
        """An evaluation of a fresh, checked, read-only matrix, stored as is."""
        ev = object.__new__(cls)
        object.__setattr__(ev, "z", z)
        object.__setattr__(ev, "matrix", matrix)
        object.__setattr__(ev, "closed_form_M", closed_form_M)
        return ev

    @property
    def closed_form_residual(self) -> float | None:
        """Relative discrepancy against the closed form, None without one."""
        if self.closed_form_M is None:
            return None
        ref = as_matrix(self.closed_form_M(self.z))
        return float(np.linalg.norm(self.matrix - ref)
                     / max(np.linalg.norm(ref), 1e-300))


def _invert_or_pole(mat: np.ndarray, what: str) -> np.ndarray:
    svals = stacked_singular_values(mat)
    if within(svals[-1], POLE_RTOL, float(svals[0])):
        raise PoleError(f"{what} is singular at the requested point")
    return np.linalg.inv(mat)


def weyl_m(model: SpectralModel, reg, z: complex) -> WeylEvaluation:
    """Weyl matrix M(z) = -(R + Mhat(z))^-1 of the regularized triplet.

    A singular R + Mhat(z) raises ``PoleError``: the requested point is
    an eigenvalue of the regularizing extension.  A real z > 0 lies on
    the continuous spectrum; the closed-form backends (one-dim, scaling
    and point interactions) return the boundary value M(z + i0) from the
    upper half-plane there.  A z or R + Mhat(z) that is not finite and a
    Mhat(z) of the wrong shape raise ``ValueError``.  When the model
    carries a closed form, the evaluation reports its discrepancy on
    access.
    """
    r = np.asarray(getattr(reg, "matrix", reg), dtype=complex)
    if r.shape != (model.n, model.n):
        r = as_matrix(r)  # a scalar R for n = 1, or the refusal of a bad one
        if r.shape[0] != model.n:
            raise ValueError("R dimension disagrees with the model")
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    m_hat = model.m_hat(z)
    if getattr(m_hat, "shape", None) != (model.n, model.n):
        m_hat = np.atleast_2d(np.asarray(m_hat, dtype=complex))  # a scalar for n = 1
        if m_hat.shape != (model.n, model.n):
            raise ValueError("Mhat(z) has the wrong dimension")
    a = r + m_hat
    if not np.isfinite(a).all():  # R's finiteness and Mhat's too
        raise ValueError("matrix entries must be finite")
    m = _invert_or_pole(a, "R + Mhat(z)")
    np.negative(m, out=m)
    m.setflags(write=False)  # fresh: frozen in place, stored without a copy
    return WeylEvaluation._fresh(z, m, model.closed_form_M)


def weyl_m_grid(model: SpectralModel, reg, z) -> np.ndarray:
    """M(z) = -(R + Mhat(z))^-1 at every point of an array of z.

    Returns an array of shape ``np.shape(z) + (n, n)`` that agrees with
    ``weyl_m`` point by point (to rounding; the array form of Mhat(z) may
    round in another order).  For n = 1 the inverse is the reciprocal of
    the one entry, with no per-matrix LAPACK call: where R + Mhat(z) is
    real with +0.0 imaginary parts, as on the negative axis, it equals
    ``np.linalg.inv`` bit for bit; at nonreal z the two agree to a few ulp.
    For n > 1 it is ``np.linalg.inv`` of the stack, and the pole rule
    takes an SVD only of the matrices the inverse does not certify
    (``triplet.invert_or_refuse_poles``), with the decisions of the SVD
    rule at every point.
    It raises what ``weyl_m`` raises, if it would at any of the points:
    ``PoleError`` for a singular R + Mhat(z), ``ValueError`` for a z or
    R + Mhat(z) that is not finite or a Mhat(z) of the wrong shape, and
    the backend's own errors.
    """
    r = as_matrix(reg)
    n = model.n
    if r.shape[0] != n:
        raise ValueError("R dimension disagrees with the model")
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError("z must be finite")
    if model.m_hat_grid is not None:
        m_hat = model.m_hat_grid(z)
    else:
        rows = [np.atleast_2d(model.m_hat(x)) for x in z.ravel().tolist()]
        m_hat = np.array(rows, dtype=complex).reshape(
            z.shape + (rows[0].shape if rows else (n, n)))
    if m_hat.shape != z.shape + (n, n):
        raise ValueError("Mhat(z) has the wrong dimension")
    a = r + m_hat
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if n == 1:
        refuse_stacked_poles(a, "R + Mhat(z)")
        # negated after the division: -1.0 / a flips the sign of a zero
        # imaginary part against LAPACK's inverse
        return -(1.0 / a)
    return -invert_or_refuse_poles(a, "R + Mhat(z)")


def check_weyl_homogeneity(weyl_fn: Callable[[complex], np.ndarray],
                           fam: SymmetryFamily, z: complex, t: float) -> float:
    """Relative residual of p(t) M(z) = Xi(t) M(p(t) z) Xi(t) at one (z, t)."""
    p_t = fam.p[t]
    xi = fam.xi_diag(t)
    m_z = as_matrix(weyl_fn(complex(z)))
    m_pz = as_matrix(weyl_fn(p_t * complex(z)))
    num = np.linalg.norm(p_t * m_z - xi @ m_pz @ xi)
    return float(num / max(np.linalg.norm(m_z), 1e-300))


def hermitian_imag_min_eig(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Herglotz part (M - M*)/(2i) of a checked matrix."""
    return float(np.linalg.eigvalsh((m - m.conj().T) / 2j).min())


def krein_correction(m_at_z, coupling) -> np.ndarray:
    """Finite-rank kernel (B - M(z))^-1 of the resolvent difference.

    Singular B - M(z) raises ``PoleError``, signaling that z belongs to
    the spectrum of the realization.
    """
    m = as_matrix(m_at_z)
    b = as_matrix(coupling)
    if b.shape != m.shape:
        raise ValueError("B and M(z) dimensions disagree")
    return _invert_or_pole(b - m, "B - M(z)")


def find_negative_eigenvalues(model: SpectralModel, reg, coupling,
                              search_interval: tuple[float, float],
                              tol: float = DEFAULT_TOL,
                              num: int = 2000) -> list[float]:
    """Roots of det(B - M(x)) on an interval of the negative axis.

    Scans ``num`` >= 2 grid points for sign changes of the (real)
    determinant and bisects each bracket to width ``tol`` > 0.  B must be
    n x n for the model's n channels (``DimensionMismatchError``
    otherwise; it is never broadcast against M(x)), and Hermitian: the
    real-axis eigenvalue search is meaningful for self-adjoint
    realizations.  A bracket whose refined midpoint does not reduce the
    determinant magnitude (a pole crossing rather than a root) is dropped.

    The scan is one ``weyl_m_grid`` call; the bisection and the final
    check of each bracket call scalar ``weyl_m``, about log2 of the cell
    width over ``tol`` times per root.
    """
    b = as_matrix(coupling)
    if b.shape[0] != model.n:
        raise DimensionMismatchError(
            f"B is {b.shape[0]}x{b.shape[0]} but the model has n={model.n}")
    if not hermitian_within(b):
        raise ValueError("eigenvalue search requires a Hermitian B")
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not lo < hi < 0:
        raise ValueError("search interval must satisfy lo < hi < 0")
    if num < 2:
        raise ValueError(f"need num >= 2, got {num!r}")
    check_tol(tol)

    def det_val(x: float) -> float:
        d = complex(np.linalg.det(b - weyl_m(model, reg, x).matrix))
        return d.real

    xs = np.linspace(lo, hi, int(num))
    vals = np.linalg.det(b - weyl_m_grid(model, reg, xs)).real.tolist()
    roots: list[float] = []
    for k in range(len(xs) - 1):
        f_a, f_b = vals[k], vals[k + 1]
        if f_a == 0.0:
            roots.append(float(xs[k]))
            continue
        if f_a * f_b >= 0.0:
            continue
        a, bb = float(xs[k]), float(xs[k + 1])
        fa = f_a
        while bb - a > tol:
            mid = 0.5 * (a + bb)
            fm = det_val(mid)
            if fm == 0.0:
                a = bb = mid
                break
            if fa * fm < 0:
                bb = mid
            else:
                a, fa = mid, fm
        x_star = 0.5 * (a + bb)
        if abs(det_val(x_star)) <= max(abs(f_a), abs(f_b)):
            roots.append(x_star)
    if vals and vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots
