"""Boundary-triplet coordinates and operator-realization membership.

Elements f of the adjoint domain are represented solely by the
coordinate pair (a, b): ``a`` holds the coefficients of f along the
defect basis h_1..h_n and ``b`` the values of the singular functionals
on the regular part u of f.  The regularized triplet attached to a
Hermitian matrix R is

    Gamma0 f = b + R a,        Gamma1 f = -a,

so component j of Gamma0 f is the value of the extended functional on
f.  A coupling matrix B then carves out the realization domain through
the boundary condition B Gamma0 f = Gamma1 f; the realization is
self-adjoint exactly when B is Hermitian.  A realization is its
matrices: B and R are plain arrays, checked where they enter
(``as_matrix``, ``checked_r``); ``AdmissibleMatrix`` keeps a checked R.

Sign convention: Gamma1 f = -a is adopted as is; comparisons with other
triplet conventions must account for this sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, PoleError

HERMITICITY_RTOL = 1e-12
POLE_RTOL = 1e-14
POLE_CERT_MARGIN = 100.0  # of invert_or_refuse_poles, over POLE_RTOL


def as_matrix(m) -> np.ndarray:
    """Coerce a wrapper or array-like to a checked square complex matrix."""
    arr = np.asarray(getattr(m, "matrix", m), dtype=complex)
    arr = arr if arr.ndim == 2 else np.atleast_2d(arr)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def frozen_matrix(m) -> np.ndarray:
    """``as_matrix`` made read-only, for storage in a frozen value type.

    A writable array that is the caller's own, or a view of one, is
    copied first (keeping its memory layout), so the caller's array
    stays writable and cannot change the stored matrix.  A read-only
    array is stored as is: a fresh result is frozen in place, not copied.
    """
    arr = as_matrix(m)
    if arr.flags.writeable and (arr is m or not arr.flags.owndata):
        arr = arr.copy(order="K")
    arr.setflags(write=False)
    return arr


def within(x: float, tol: float, scale: float = 1.0) -> bool:
    """The package's tolerance rule: x <= tol * max(1, scale)."""
    return x <= tol * max(1.0, scale)


def within_grid(x: np.ndarray, tol: float, scale: np.ndarray) -> np.ndarray:
    """``within`` point by point over arrays x and scale."""
    return x <= tol * np.maximum(1.0, scale)


def stacked_singular_values(mats: np.ndarray) -> np.ndarray:
    """Singular values (..., n), largest first, of a stack (..., n, n).

    The one singular value of a 1x1 matrix is the modulus of its entry,
    taken without a per-matrix SVD.
    """
    if mats.shape[-1] == 1:
        return abs(mats[..., 0])
    return np.linalg.svd(mats, compute_uv=False)


def refuse_stacked_poles(mats: np.ndarray, what: str) -> None:
    """``PoleError`` if any matrix of a checked stack (..., n, n) is singular.

    The ``within`` rule at ``POLE_RTOL``, point by point: the smallest
    singular value against the largest.  This is the pole rule of the
    package; ``invert_or_refuse_poles`` takes the same decisions, on a
    single matrix with an SVD only where its certificate does not clear it.
    """
    svals = stacked_singular_values(mats)
    if within_grid(svals[..., -1], POLE_RTOL, svals[..., 0]).any():
        raise PoleError(f"{what} is singular at the requested point")


# numpy's quotient by c + di divides by c + d (d / c) (|c| >= |d|),
# which overflows near the largest double.  An entry above
# _RECIPROCAL_MAX in modulus is therefore scaled by _RECIPROCAL_SCALE, a
# power of two and so exactly, before and after its reciprocal.
_RECIPROCAL_MAX = 2.0 ** 1020
_RECIPROCAL_SCALE = 2.0 ** -4


def _scaled(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """a times the real s, part by part, so that the signs of zeros stay."""
    out = np.empty(a.shape, dtype=complex)
    out.real, out.imag = a.real * s, a.imag * s
    return out


def negated_reciprocal(a, what: str):
    """-(1 / a) for the entry a of a 1x1 matrix, or entry by entry for an
    array of such entries, under the pole rule.

    ``a`` is a numpy complex scalar or array; the result has its shape,
    and a scalar may come back as a 0-d array.  ``ValueError`` if any
    entry is not finite, else ``PoleError`` if any has |a| <=
    ``POLE_RTOL``.  That is the rule of ``refuse_stacked_poles`` on a 1x1
    matrix, |a| <= ``POLE_RTOL`` max(1, |a|), since ``POLE_RTOL`` < 1.

    The quotient is numpy's, which gives the same bits for a scalar and
    an array.  An array ``a`` is overwritten with the result where no
    entry needs the scaling below, so that a grid allocates no second
    array for it.  An entry above 2^1020 in modulus is scaled by 2^-4 around
    it, so that the quotient neither overflows nor warns; its result lies
    within a few ulp of the exact one, or within the subnormal spacing.

    Both decisions take numpy's array modulus, which differs from its
    scalar one (libm's hypot) in the last bit for about a third of the
    entries.  A scalar whose scalar modulus is more than a factor 2 clear
    of both thresholds, the common case, takes no array operation.
    """
    if not isinstance(a, np.ndarray) and 2.0 * POLE_RTOL < abs(a) < 0.5 * _RECIPROCAL_MAX:
        # negated after the division: -1.0 / a flips the sign of a zero
        # imaginary part against LAPACK's inverse
        return -(1.0 / a)
    a = np.asarray(a, dtype=complex)
    mod = abs(a)
    low, high = mod.min(initial=np.inf), mod.max(initial=0.0)  # NaN if any is
    del mod  # a grid's temporaries are kept to a and the result
    if not high <= _RECIPROCAL_MAX and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if low <= POLE_RTOL:
        raise PoleError(f"{what} is singular at the requested point")
    if high <= _RECIPROCAL_MAX:
        out = np.divide(1.0, a, out=a)
        return np.negative(out, out=out)
    s = np.where(abs(a) <= _RECIPROCAL_MAX, 1.0, _RECIPROCAL_SCALE)
    return -_scaled(1.0 / _scaled(a, s), s)


def _frobenius_sq(mat: np.ndarray) -> float:
    """Squared Frobenius norm of one matrix, summed in Python floats, which
    overflow to inf and underflow to 0 without a warning."""
    total = 0.0
    for x in mat.ravel().tolist():
        total += (x * x.conjugate()).real
    return total


_CERT_SQ = (POLE_CERT_MARGIN * POLE_RTOL) ** 2


def invert_or_refuse_poles(mats: np.ndarray, what: str) -> np.ndarray:
    """``np.linalg.inv`` of a matrix (n, n) or a stack (..., n, n), under
    the pole rule.

    Raises ``PoleError`` exactly where ``refuse_stacked_poles`` does, and
    otherwise returns ``np.linalg.inv(mats)`` bit for bit.  An exactly
    singular matrix, on which ``np.linalg.inv`` raises ``LinAlgError``,
    is a ``PoleError`` even where the SVD rule would pass.

    A stack must be finite; it goes to ``refuse_stacked_poles`` after its
    one inverse.  A single matrix (n, n), the form of ``krein_correction``
    and of the scalar ``weyl_m`` for n >= 2 (one channel takes
    ``negated_reciprocal``), is checked here, and takes an SVD only
    where the inverse itself does not certify it:
    sigma_min(A) >= 1 / ||A^-1||_F and sigma_max(A) <= ||A||_F.  A
    computed inverse is the exact inverse of a matrix within about
    eps ||A|| of A, so a matrix with
    1 / ||X||_F > ``POLE_CERT_MARGIN`` * ``POLE_RTOL`` * max(1, ||A||_F)
    for its computed inverse X has sigma_min far above
    ``POLE_RTOL`` * max(1, sigma_max), and the SVD rule, whose singular
    values are also within about eps ||A|| of the true ones, would not
    refuse it either.  A matrix the certificate does not clear (an
    inverse that is near the threshold, overflows or is not finite, or a
    squared norm that overflows) goes to ``refuse_stacked_poles``.  The
    norms are summed over the n^2 entries in Python floats, cheaper than
    numpy's per-call cost; a finite ||A||_F is the finiteness check, and
    an entry that is not finite raises ``ValueError``.

    LAPACK's inverse flushes to zero an entry whose exact value lies near
    the bottom of the normal range, as the inverse of a matrix with
    entries near the largest double does.  So a single matrix whose
    ||A||_F^2 overflows, and a matrix of a stack with an entry above
    2^1020 in modulus, is inverted as 2^-4 (2^-4 A)^-1, with the scaling
    of ``negated_reciprocal``.  A power of two scales exactly, so this
    changes no bit of an inverse that stays in the normal range.
    """
    scale = None
    if mats.ndim == 2:
        a_sq = _frobenius_sq(mats)
        if not math.isfinite(a_sq):
            if not np.isfinite(mats).all():
                raise ValueError("matrix entries must be finite")
            scale = _RECIPROCAL_SCALE
    else:
        big = (abs(mats) > _RECIPROCAL_MAX).any(axis=(-2, -1))
        if big.any():
            scale = np.where(big, _RECIPROCAL_SCALE, 1.0)[..., None, None]
    try:
        inv = np.linalg.inv(mats if scale is None else _scaled(mats, scale))
    except np.linalg.LinAlgError:
        refuse_stacked_poles(mats, what)
        raise PoleError(f"{what} is singular at the requested point") from None
    if scale is not None:
        inv = _scaled(inv, scale)
    if mats.ndim > 2 or not _CERT_SQ * _frobenius_sq(inv) * max(1.0, a_sq) < 1.0:
        refuse_stacked_poles(mats, what)
    return inv


def _frozen_vector(v) -> np.ndarray:
    arr = np.array(v, dtype=complex).ravel()
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    arr.setflags(write=False)
    return arr


def hermitian_defect(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat - mat.conj().T))


def hermitian_within(mat: np.ndarray, tol: float = HERMITICITY_RTOL) -> bool:
    """Hermitian within ``tol`` relative to the Frobenius norm; trusts ``mat``."""
    return within(hermitian_defect(mat), tol, float(np.linalg.norm(mat)))


def checked_r(m) -> np.ndarray:
    """R where it enters: ``as_matrix``, and Hermitian by ``hermitian_within``
    (``ValueError`` otherwise)."""
    mat = as_matrix(m)
    if not hermitian_within(mat):
        raise ValueError(
            f"R must be Hermitian (defect {hermitian_defect(mat):.3e})")
    return mat


@dataclass(frozen=True, eq=False)
class BoundaryCoordinates:
    """Coordinates (a, b) of an element of the adjoint domain.

    ``a`` are the defect-basis coefficients, ``b`` the functional values
    on the regular part; the infinite-dimensional part of the element is
    never materialized.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _frozen_vector(self.a)
        b = _frozen_vector(self.b)
        if a.shape != b.shape:
            raise DimensionMismatchError(
                f"coordinate vectors disagree: {a.shape} vs {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True, eq=False)
class AdmissibleMatrix:
    """Hermitian matrix R fixing the extension of the singular functionals."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", checked_r(frozen_matrix(self.matrix)))


def to_regularized_triplet(coords: BoundaryCoordinates,
                           reg: AdmissibleMatrix | np.ndarray,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Map coordinates (a, b) to the regularized boundary values.

    Returns (Gamma0 f, Gamma1 f) = (b + R a, -a); linear in the
    coordinates for fixed R.
    """
    r = as_matrix(reg)
    if r.shape[0] != coords.n:
        raise DimensionMismatchError(
            f"R is {r.shape[0]}x{r.shape[0]} but coordinates have n={coords.n}")
    return coords.b + r @ coords.a, -coords.a


def in_realization_domain(coords: BoundaryCoordinates, coupling: np.ndarray,
                          reg: AdmissibleMatrix | np.ndarray,
                          tol: float = 1e-10) -> bool:
    """Test the boundary condition B Gamma0 f = Gamma1 f within tol."""
    b_mat = as_matrix(coupling)
    g0, g1 = to_regularized_triplet(coords, reg)
    if b_mat.shape[0] != g0.shape[0]:
        raise DimensionMismatchError(
            f"B is {b_mat.shape[0]}x{b_mat.shape[0]} but coordinates have n={g0.shape[0]}")
    return float(np.linalg.norm(b_mat @ g0 - g1)) <= tol


def is_selfadjoint_realization(coupling, tol: float = HERMITICITY_RTOL) -> bool:
    """True when B is Hermitian by ``hermitian_within`` at ``tol``, i.e. the
    realization is self-adjoint; B is checked by ``as_matrix``."""
    return hermitian_within(as_matrix(coupling), tol)


def boundary_form(first: tuple[np.ndarray, np.ndarray],
                  second: tuple[np.ndarray, np.ndarray]) -> complex:
    """Green pairing (g1, g0') - (g0, g1') of two boundary-value pairs.

    Inner product convention: (x, y) = sum_k x_k conj(y_k).  For pairs
    produced with a Hermitian R the value is independent of R and flips
    to minus its conjugate when the two elements are swapped.
    """
    g0, g1 = first
    g0p, g1p = second
    return complex(np.vdot(g0p, g1) - np.vdot(g1p, g0))
