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
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError
from .symmetry import DEFAULT_TOL, SymmetryFamily, check_tol
from .triplet import (HERMITICITY_RTOL, as_matrix, frozen_matrix,
                      hermitian_within, invert_or_refuse_poles,
                      negated_reciprocal, within)


@dataclass(frozen=True, eq=False)
class NegativeAxisPolynomial:
    """Mhat(x) = u^-d sum_k C_k u^k with u = (-x)^q on the negative axis.

    Parameters
    ----------
    q : float
        The exponent of u = (-x)^q, finite with 0 < |q| < 1, so that
        x -> u is monotone and u on the principal branch maps the upper
        half-plane of z into the sector |arg u| < |q| pi.
    d : int
        The power of u that divides the polynomial, d >= 0.
    coeffs : (D + 1, n, n) array
        C_0..C_D, finite.
    """

    q: float
    d: int
    coeffs: np.ndarray

    def __post_init__(self):
        q = float(self.q)
        if not 0.0 < abs(q) < 1.0:
            raise ValueError(f"need 0 < |q| < 1, got {self.q!r}")
        if int(self.d) != self.d or self.d < 0:
            raise ValueError(f"need an integer d >= 0, got {self.d!r}")
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2] or not len(coeffs):
            raise ValueError("coeffs must be a nonempty stack of square matrices")
        if not np.isfinite(coeffs).all():
            raise ValueError("matrix entries must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "coeffs", coeffs)


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
    negative_axis : NegativeAxisPolynomial, optional
        Mhat on the negative axis as a polynomial in a power of -x, where
        the model's symmetry makes it one.  A search of several channels
        (``find_negative_eigenvalues``) finds its roots from it by one
        small eigenproblem, and is refused without it; a search of one
        channel brackets its one root and does not read it.  It must
        continue analytically to ``m_hat`` off the axis, u = (-z)^q on
        the principal branch.
    """

    n: int
    m_hat: Callable[[complex], np.ndarray]
    overlap: np.ndarray
    psi_in_Hminus1: tuple[bool, ...]
    closed_form_M: Callable[[complex], np.ndarray] | None = None
    m_hat_grid: Callable[[np.ndarray], np.ndarray] | None = None
    negative_axis: NegativeAxisPolynomial | None = None

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
        if (self.negative_axis is not None
                and self.negative_axis.coeffs.shape[1] != self.n):
            raise ValueError("negative-axis coefficients disagree with the channel count")
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


def weyl_m(model: SpectralModel, reg, z: complex) -> WeylEvaluation:
    """Weyl matrix M(z) = -(R + Mhat(z))^-1 of the regularized triplet.

    A singular R + Mhat(z) raises ``PoleError``: the requested point is
    an eigenvalue of the regularizing extension.  For one channel the
    matrix is -(1 / a) for the one entry a of R + Mhat(z), numpy's
    complex quotient under the pole rule (``triplet.negated_reciprocal``,
    which ``weyl_m_grid`` shares), with no LAPACK call.  For several it
    is ``-np.linalg.inv(R + Mhat(z))`` bit for bit, and
    ``triplet.invert_or_refuse_poles`` decides the pole from that one
    inverse, with an SVD only where its certificate does not clear
    R + Mhat(z); where ||R + Mhat(z)||_F^2 overflows, the inverse is
    taken of 2^-4 (R + Mhat(z)) and scaled back, so that entries near
    the bottom of the normal range are not flushed to zero.  A real z > 0 lies on the continuous spectrum; the
    closed-form backends (one-dim, scaling and point interactions) return
    the boundary value M(z + i0) from the upper half-plane there.  A z or
    R + Mhat(z) that is not finite and a Mhat(z) of the wrong shape raise
    ``ValueError``.  When the model carries a closed form, the evaluation
    reports its discrepancy on access.
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
    if model.n == 1:
        m = np.array([[negated_reciprocal(r[0, 0] + m_hat[0, 0], "R + Mhat(z)")]])
    else:
        m = invert_or_refuse_poles(r + m_hat, "R + Mhat(z)")  # checks finiteness
        np.negative(m, out=m)
    m.setflags(write=False)  # fresh: frozen in place, stored without a copy
    return WeylEvaluation._fresh(z, m, model.closed_form_M)


def weyl_m_grid(model: SpectralModel, reg, z) -> np.ndarray:
    """M(z) = -(R + Mhat(z))^-1 at every point of an array of z.

    Returns an array of shape ``np.shape(z) + (n, n)`` that agrees with
    ``weyl_m`` point by point (to rounding; the array form of Mhat(z) may
    round in another order).  A backend without an array form (the
    p-adic series) is looped over its scalar ``m_hat``.  For n = 1 the
    inverse is ``weyl_m``'s: the reciprocal of the one entry under the
    pole rule (``triplet.negated_reciprocal``), the same bits for the
    same R + Mhat(z), so a looped backend gives ``weyl_m``'s bytes at
    every z.  For n > 1 it is ``np.linalg.inv`` of the stack, after
    which the SVD rule decides the poles
    (``triplet.invert_or_refuse_poles``); a matrix with an entry above
    2^1020 in modulus is inverted as 2^-4 (2^-4 (R + Mhat(z)))^-1.  It raises what ``weyl_m``
    raises, if it would at any of the points: ``PoleError`` for a
    singular R + Mhat(z), ``ValueError`` for a z or R + Mhat(z) that is
    not finite or a Mhat(z) of the wrong shape, and the backend's own
    errors.
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
    if n == 1:
        return negated_reciprocal(a, "R + Mhat(z)")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
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
    """Smallest eigenvalue of the Herglotz part (M - M*)/(2i) of a checked
    matrix, or the smallest over a stack (..., n, n) of them."""
    return float(np.linalg.eigvalsh((m - m.conj().swapaxes(-2, -1)) / 2j).min())


def krein_correction(m_at_z, coupling) -> np.ndarray:
    """Finite-rank kernel (B - M(z))^-1 of the resolvent difference.

    Singular B - M(z) raises ``PoleError``, signaling that z belongs to
    the spectrum of the realization; the pole rule and the inverse are
    those of ``weyl_m`` (``triplet.invert_or_refuse_poles``).  A B - M(z)
    that overflows raises ``ValueError``.
    """
    m = as_matrix(m_at_z)
    b = as_matrix(coupling)
    if b.shape != m.shape:
        raise ValueError("B and M(z) dimensions disagree")
    with np.errstate(over="ignore"):  # an overflow is refused as not finite
        a = b - m
    return invert_or_refuse_poles(a, "B - M(z)")


# A root u of the search polynomial this near the real axis is real: in
# the sector |arg u| < |q| pi the polynomial vanishes only on the axis.
EXACT_IMAG_RTOL = 1e-6


def find_negative_eigenvalues(model: SpectralModel, reg, coupling,
                              search_interval: tuple[float, float],
                              tol: float = DEFAULT_TOL) -> list[float]:
    """Roots of det(B - M(x)) on a closed interval of the negative axis.

    Returns each distinct root once, in ascending order; a root at an end
    of the interval is returned as that end.  B must be n x n for the
    model's n channels (``DimensionMismatchError`` otherwise; it is never
    broadcast against M(x)), and Hermitian: the real-axis eigenvalue
    search is meaningful for self-adjoint realizations.

    It takes one route per channel count.

    1. Several channels (n >= 2) need the model's ``negative_axis``
       datum (Mhat(x) = u^-d sum_k C_k u^k, u = (-x)^q), and a model
       without it raises ``ValueError``.  With K(x) = R + Mhat(x),
       det(B - M(x)) = det(I + B K(x)) / det K(x).  So the roots are the
       real u in the image of the interval where the matrix polynomial
       u^d (I + B R) + sum_k B C_k u^k is singular, and the poles of M
       those where u^d R + sum_k C_k u^k is.  One ``np.linalg.eigvals``
       of a block companion matrix finds either set, each point as often
       as its multiplicity (``_real_singular_points``); roots closer than
       ``tol`` times their size are merged.  Two scalar ``weyl_m`` calls
       certify their number.  B - M(x) is Hermitian and strictly
       decreasing between the poles of M, and at a pole one of its
       eigenvalues leaves through -inf and comes back through +inf.  So
       its count of negative eigenvalues grows from ``lo`` to ``hi`` by
       the number of roots in [lo, hi] less the number of poles,
       multiplicity included.  An eigenvalue that is zero to rounding
       counts as negative at ``hi`` and not at ``lo``, and its root is
       that end.  The poles are found only where the roots alone disagree
       with the count.  A pole of M at an end raises ``PoleError``, and a
       count that still disagrees ``ConvergenceError``.
    2. One channel (n = 1), with or without the datum, brackets its one
       root.  Here det(B - M(x)) = g(x) / K(x) with g(x) = 1 + B K(x),
       real and monotone on the negative axis, since Mhat is strictly
       increasing there (A0 >= 0).  So a rank-one perturbation has at
       most one negative eigenvalue, and a pole of M (K = 0, g = 1) is
       no event.  The interval is closed: an end where g is zero to
       rounding, |g| <= ``HERMITICITY_RTOL`` max(1, |B K|), is the root.
       Otherwise the signs of g at ``lo`` and ``hi`` decide between no
       root and one, and a regula falsi on g from ``model.m_hat``
       (``_bracketed_root``), with no inversion, closes the bracket to
       2 ulp or stops where g is 0: a relative stop, which ``tol`` does
       not set.  It takes about 10 ``m_hat`` calls and no ``weyl_m``
       call.

    ``tol`` is checked on both routes.  The backend's errors
    (``ConvergenceError``, ``PoleError``) propagate.
    """
    b = as_matrix(coupling)
    if b.shape[0] != model.n:
        raise DimensionMismatchError(
            f"B is {b.shape[0]}x{b.shape[0]} but the model has n={model.n}")
    if not hermitian_within(b):
        raise ValueError("eigenvalue search requires a Hermitian B")
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not -math.inf < lo < hi < 0:
        raise ValueError("search interval must satisfy lo < hi < 0")
    check_tol(tol)
    if model.n == 1:
        return _one_channel_root(model, reg, float(b[0, 0].real), lo, hi)
    if model.negative_axis is None:
        raise ValueError("a search of several channels needs the model's "
                         "negative_axis datum")
    return _exact_roots(model, reg, b, lo, hi, tol)


def _inertia(a: np.ndarray, zero_is_negative: bool) -> tuple[int, int]:
    """The negative eigenvalues of a Hermitian matrix, those zero to
    rounding counted as negative or not, and the number of those."""
    eigs = np.linalg.eigvalsh(a).tolist()
    scale = max(map(abs, eigs))
    zero = [within(abs(e), HERMITICITY_RTOL, scale) for e in eigs]
    zeros = sum(zero)
    negatives = sum(e < 0.0 and not z for e, z in zip(eigs, zero))
    return negatives + (zeros if zero_is_negative else 0), zeros


def _exact_roots(model: SpectralModel, reg, b: np.ndarray, lo: float, hi: float,
                 tol: float) -> list[float]:
    """The roots from the model's ``negative_axis`` datum.  A pole of M at
    an end raises ``PoleError``, and roots whose number less that of the
    poles of M disagrees with the inertia count ``ConvergenceError``."""
    above, zeros_hi = _inertia(b - weyl_m(model, reg, hi).matrix, True)
    below, zeros_lo = _inertia(b - weyl_m(model, reg, lo).matrix, False)
    datum, r = model.negative_axis, as_matrix(reg)
    try:
        found = _real_singular_points(datum, b @ datum.coeffs,
                                      np.eye(model.n) + b @ r, lo, hi)
        # the roots nearest an end where B - M has zero eigenvalues are that end
        for end, zeros in ((lo, zeros_lo), (hi, zeros_hi)):
            for i in sorted(range(len(found)), key=lambda i: abs(found[i] - end))[:zeros]:
                if abs(found[i] - end) < tol:
                    found[i] = end
        roots = sorted(x for x in found if lo <= x <= hi)
        count = len(roots)
        if count != above - below:
            count -= sum(lo < x < hi for x in
                         _real_singular_points(datum, datum.coeffs, r, lo, hi))
    except np.linalg.LinAlgError:  # a singular shifted polynomial, or entries not finite
        count = None
    if count != above - below:
        raise ConvergenceError(
            "the roots of det(B - M) less the poles of M disagree with "
            "the inertia count of B - M at the ends of the interval")
    clusters: list[list[float]] = []
    for x in roots:
        if clusters and x - clusters[-1][-1] < tol * abs(x):
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return [lo if lo in c else hi if hi in c else sum(c) / len(c) for c in clusters]


def _real_singular_points(datum: NegativeAxisPolynomial, a: np.ndarray,
                          lead: np.ndarray, lo: float, hi: float) -> list[float]:
    """The x < 0 at which u^d L + sum_k A_k u^k is singular, u = (-x)^q,
    each as often as its multiplicity, in ascending order.

    ``a`` stacks A_0..A_D and ``lead`` is L.  The points are the real u
    among the eigenvalues of one block companion matrix, shifted to the u
    of z = -i sqrt(lo hi): off the real axis, where the polynomials of the
    search are invertible.  A constant (degree 0) has no such point, and
    raises ``LinAlgError`` where it is singular.
    """
    n = lead.shape[0]
    deg = max(datum.d, len(a) - 1)
    poly = np.zeros((deg + 1, n, n), dtype=complex)
    poly[:len(a)] = a
    poly[datum.d] += lead
    if not deg:  # a constant: singular nowhere, or everywhere (LinAlgError)
        np.linalg.inv(poly[0])
        return []
    # P(sigma + 1/mu) mu^deg = sum_j T_j mu^(deg-j) with T_j the Taylor
    # coefficients of P at sigma; T_0 = P(sigma) is invertible
    sigma = (1j * math.sqrt(lo * hi)) ** datum.q
    taylor = [sum(math.comb(k, j) * sigma ** (k - j) * poly[k] for k in range(j, deg + 1))
              for j in range(deg + 1)]
    companion = np.eye(deg * n, k=-n, dtype=complex)
    companion[:n] = -np.linalg.solve(taylor[0], np.concatenate(taylor[1:], axis=1))
    mu = np.linalg.eigvals(companion)
    mu = mu[mu != 0.0]  # a root at infinity
    with np.errstate(over="ignore"):
        u = sigma + 1.0 / mu
        real = u.real[(np.abs(u.imag) <= EXACT_IMAG_RTOL * np.abs(u)) & (u.real > 0.0)]
        return sorted((-(real ** (1.0 / datum.q))).tolist())


def _one_channel_root(model: SpectralModel, reg, b: float, lo: float,
                      hi: float) -> list[float]:
    """The root of g(x) = 1 + B (R + Mhat(x)) in [lo, hi], if there is one.

    For n = 1, det(B - M(x)) = g(x) / K(x) with K = R + Mhat.  Mhat is
    strictly increasing on the negative axis (A0 >= 0), so g is monotone:
    its signs at the ends decide between no root and one, and a pole of M
    (K = 0, g = 1) is no event.  An end where g is zero to rounding,
    |g| <= ``HERMITICITY_RTOL`` max(1, |B K|), is the root, as for the
    inertia count of ``_exact_roots``.  Mhat comes from ``model.m_hat``,
    with no inversion.
    """
    r = as_matrix(reg)
    if r.shape != (1, 1):
        raise ValueError("R dimension disagrees with the model")
    r = complex(r[0, 0])

    def g(x: float) -> float:
        m_hat = np.asarray(model.m_hat(complex(x)), dtype=complex)
        if m_hat.size != 1:
            raise ValueError("Mhat(z) has the wrong dimension")
        k = r + m_hat.item()
        if not cmath.isfinite(k):
            raise ValueError("matrix entries must be finite")
        return 1.0 + b * k.real

    g_lo, g_hi = g(lo), g(hi)
    for end, g_end in ((lo, g_lo), (hi, g_hi)):
        if within(abs(g_end), HERMITICITY_RTOL, abs(g_end - 1.0)):  # g - 1 = B K
            return [end]
    if (g_lo < 0.0) == (g_hi < 0.0):
        return []
    return [_bracketed_root(g, lo, hi, g_lo, g_hi)]


def _log_width(a: float, b: float) -> float:
    """log(a / b) for a < b < 0, without overflow or cancellation."""
    return math.log(-a) - math.log(-b) if a < 2.0 * b else math.log1p((a - b) / b)


def _bracketed_root(g: Callable[[float], float], a: float, b: float,
                    g_a: float, g_b: float) -> float:
    """A root of g in (a, b), a < b < 0, with g(a) = g_a and g(b) = g_b of
    opposite signs, to within 2 ulp of the bracket or where g is 0.

    Regula falsi with the Anderson-Bjoerck weights: interpolate between
    the weighted ends, and where the same end moves twice in a row, scale
    the weight of the other by 1 - g(new) / g(old), or by 1/2 (the
    Illinois rule) where that is not positive.  A p-adic search on
    (-3, -0.3) then takes 8 to 11 evaluations of g, ends included, where
    the Illinois rule alone took 10 to 14.  It interpolates in log(-x)
    while the bracket spans more than a factor 2, and in x after.  Where
    three interpolations have not halved log(a / b), it splits the
    bracket instead, at the geometric mean or the midpoint, until they
    have; so the bracket shrinks at least geometrically whatever the
    shape of g.
    """
    w_a, w_b = g_a, g_b  # the interpolation weights of the ends
    # steps: interpolations since log(a / b) last halved, to ``width``
    side, steps, width, nudge = 0, 0, _log_width(a, b), 2.0
    while b - a > 2.0 * math.ulp(a):
        wide = a < 2.0 * b
        x = math.nan
        if steps < 3:
            steps += 1
            if wide:
                s_a, s_b = math.log(-a), math.log(-b)
                x = -math.exp(s_b - w_b * (s_b - s_a) / (w_b - w_a))
            else:
                x = b - w_b * (b - a) / (w_b - w_a)
            inner = min(max(x, a + nudge * math.ulp(a)), b - nudge * math.ulp(b))
            if inner != x:
                # next to an end, a step of 2 ulp inside it closes the bracket
                # at a root there; where g is flat to rounding, the step
                # doubles each time
                x, nudge = inner, 2.0 * nudge
        if not a < x < b:
            x = -math.sqrt(-a) * math.sqrt(-b) if wide else a + 0.5 * (b - a)
        g_x = g(x)
        if g_x == 0.0:
            return x
        if (g_x < 0.0) == (g_a < 0.0):
            if side < 0:
                m = 1.0 - g_x / g_a
                w_b *= m if m > 0.0 else 0.5
            a, g_a, w_a = x, g_x, g_x
            side = -1
        else:
            if side > 0:
                m = 1.0 - g_x / g_b
                w_a *= m if m > 0.0 else 0.5
            b, g_b, w_b = x, g_x, g_x
            side = 1
        if _log_width(a, b) <= 0.5 * width:
            steps, width = 0, _log_width(a, b)
    return a if abs(g_a) < abs(g_b) else b
