"""Concrete model backends: symmetry families, Gram data, spectral data.

Four solvable configurations are built here, each reporting its data in
the defect basis h_j = (A0 + I)^-1 psi_j:

``OneDimDeltaDeltaPrime``
    The second-derivative operator on the line with channels delta and
    delta-prime at the origin.  Defect elements h'(x) = exp(-|x|)/2 and
    h''(x) = -sign(x) exp(-|x|)/2.  The symmetry family couples space
    parity (encoded as the sample t = 0 with g(0) = 0, p(0) = 1,
    xi = (+1, -1)) with the scalings U_t f(x) = sqrt(t) f(tx), under
    which p(t) = t^-2, xi = (t^-1/2, t^-3/2).  Gram data in closed
    form: diagonal sqrt(t)/(2(1+t)) for t > 0, zero off-diagonal, and
    (+|h'|^2, -|h''|^2) = (1/4, -1/4) at the parity point.

``PointInteractionRd`` (d = 1, 2, 3)
    The free Laplacian in d dimensions with a single delta channel,
    scalings U_t f(x) = t^(d/2) f(tx), p(t) = t^-2, xi(t) = t^(-d/2).
    Normalization pinned in Fourier form, hhat(y) = (2pi)^(-d/2) /
    (1 + |y|^2).  This is the scaling-invariant case nu = d/2: the Gram
    data are the ``ScalingInvariant3D`` closed form at alpha = nu (with
    the limit t log t / (t^2 - 1) at d = 2) times (2pi)^-d |S^(d-1)|,
    and so are E(z) (``radial_resolvent_closed``) and Mhat(z)
    (``radial_m_hat``) at nu = d/2.

``PAdicVladimirov`` (prime p, exponent alpha > 1/2)
    Fractional p-adic differentiation of order alpha with a delta
    channel, dilations U_t f(x) = t^(-1/2) f(tx) over t in {p^m},
    p(t) = t^alpha, xi(t) = sqrt(t).  The delta expands over a wavelet
    eigenbasis with eigenvalue lambda_N = p^(alpha(1-N)) and coefficient
    c_N = p^(-N/2) / (lambda_N + 1) at scale N, p-1 wavelets per scale;
    U_{p^m} shifts N by m: Gram data are series in c_N c_(N+m),
    E(z) = (p-1) sum_N c_N^2 / (lambda_N - z), and
    Mhat(z) = (z+1) (p-1) sum_N p^-N / ((lambda_N + 1) (lambda_N - z)),
    which is (z+1) (overlap + (z+1) E(z)) summed term by term.  For
    alpha > 1 the closed series M(z) = -1 / ((p-1) sum_N p^-N / (lambda_N - z))
    is attached for cross-checks.  All four series run over one table of
    scales built once per (p, alpha) and check a tail bound.

``ScalingInvariant3D`` (alpha in (1, 2), channel Gram (m_i, m_j))
    The free Laplacian in three dimensions with n channels built from
    directional densities m_j on the unit sphere and radial profile
    |y|^(alpha - 3/2) / (1 + |y|^2) in Fourier space; all channels share
    xi(t) = t^-alpha under U_t f(x) = t^(3/2) f(tx), p(t) = t^-2.
    Gram(t) = c_alpha (t^alpha - t^(2-alpha)) / (t^2 - 1) (m_i, m_j)
    with the removable t = 1 singularity filled by alpha - 1, and the
    predicted unique regularization R = -c_alpha (m_i, m_j) attached.
    For orthonormal channels ((m_j, m_j) normalized against the squared
    defect norm) beta_alpha = c_alpha / norm = 1 / (alpha - 1) is
    attached.  Both constants are closed forms (``scaling_constants``);
    E(z) and Mhat(z) are ``radial_resolvent_closed`` and ``radial_m_hat``
    at nu = alpha times (m_i, m_j).

Sample grids default to the geometric set {2^k : k = -3..3} (in the
p-adic case {p^m : m = -3..3}), enough points to expose inconsistency
in the homogeneity system.  Every model is built from closed forms and
the p-adic scale table; no build integrates.  Each backend gives
Mhat(z), the Weyl function of the plain defect triplet, at one z
(``SpectralModel.m_hat``): the closed form ``radial_m_hat`` for the
point and scaling models, diag((1-u)/(2u), (1-u)/2) with u = sqrt(-z)
for the one-dim model, and its own series for the p-adic model.  The
closed forms also come over an array of z (``m_hat_grid``, from
``radial_m_hat_grid`` for the point and scaling models); the p-adic
model has no array form, and ``weyl_m_grid`` loops over its ``m_hat``.
On the negative axis the point (d = 1, 3), scaling and one-dim Mhat are
polynomials in a power of -x (``SpectralModel.negative_axis``,
``radial_negative_axis``), from which the eigenvalue search of several
channels takes its roots exactly; a search of one channel brackets its
one root from ``m_hat`` on every model.  The scalar E(z) functions
(``radial_resolvent_closed``, ``e_alpha``,
``point_interaction_resolvent``, ``_one_dim_resolvent`` and
``padic_resolvent``) give the independent check
Mhat(z) = (z+1) (overlap + (z+1) E(z)).  The quadratures
``one_dim_gram_quadrature``, ``radial_resolvent_integral``, ``c_alpha``
and ``h_norm_integral`` stay as independent checks too.  They run the
tanh-sinh rule of ``quadrature``, whose nodes reach from 5e-148 to 2e147,
on integrands that take the array of nodes and stay finite at each of
them (the defect elements ``h_delta`` and ``h_delta_prime`` take arrays
too).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping

import numpy as np

from .admissibility import GramFunction
from .errors import ConvergenceError, PoleError
from .quadrature import (integrate_half_line, integrate_half_line_complex,
                         integrate_real_line)
from .symmetry import SymmetryFamily
from .triplet import as_matrix, frozen_matrix, hermitian_within
from .weyl import NegativeAxisPolynomial, SpectralModel

GEOMETRIC_EXPONENTS = range(-3, 4)

KIND_ONE_DIM = "OneDimDeltaDeltaPrime"
KIND_POINT = "PointInteractionRd"
KIND_PADIC = "PAdicVladimirov"
KIND_SCALING = "ScalingInvariant3D"


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A fully built model: family, Gram function, spectral backend, names."""

    kind: str
    params: Mapping[str, Any]
    family: SymmetryFamily
    gram: GramFunction
    spectral: SpectralModel
    channel_names: tuple[str, ...]
    predicted_R: np.ndarray | None = None
    beta_alpha: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        if self.predicted_R is not None:
            object.__setattr__(self, "predicted_R", frozen_matrix(self.predicted_R))

    @property
    def n(self) -> int:
        return self.spectral.n

    @property
    def psi_in_Hminus1(self) -> tuple[bool, ...]:
        return self.spectral.psi_in_Hminus1


# ---------------------------------------------------------------------------
# One-dimensional zero-range model (delta, delta')
# ---------------------------------------------------------------------------

def h_delta(x):
    """Defect element of the delta channel on the line, at a point or at
    every point of an array."""
    return 0.5 * np.exp(-np.abs(x))


def h_delta_prime(x):
    """Defect element of the delta-prime channel on the line (odd), at a
    point or at every point of an array."""
    return -0.5 * np.sign(x) * np.exp(-np.abs(x))


def one_dim_gram_closed(t: float) -> np.ndarray:
    """Closed-form Gram matrix of the zero-range model at sample t.

    t = 0 encodes the parity operator; t > 0 the scaling by t.
    """
    if t == 0.0:
        return np.diag([0.25, -0.25]).astype(complex)
    s = math.sqrt(t) / (2.0 * (1.0 + t))
    return np.diag([s, s]).astype(complex)


def one_dim_gram_quadrature(i: int, j: int, t: float) -> float:
    """Position-space quadrature of (h_j, U_t h_i) for the zero-range model.

    Independent cross-check route for the closed forms; U_0 is parity,
    U_t (t > 0) the L2-normalized scaling.
    """
    h = (h_delta, h_delta_prime)
    if t == 0.0:
        return integrate_real_line(lambda x: h[j](x) * h[i](-x))
    return math.sqrt(t) * integrate_real_line(lambda x: h[j](x) * h[i](t * x))


def _one_dim_resolvent(z: complex) -> np.ndarray:
    # + 0j as in ``_one_dim_m_hat``: real z > 0 on the upper rim of the cut
    u = np.sqrt(-(complex(z) + 0j))
    if not u:
        raise PoleError("E of the delta channel diverges at z = 0")
    e11 = (u + 2.0) / (4.0 * u * (1.0 + u) ** 2)
    e22 = 1.0 / (4.0 * (1.0 + u) ** 2)
    return np.diag([e11, e22])


def _one_dim_m_hat(z) -> np.ndarray:
    """Mhat = diag((1-u)/(2u), (1-u)/2), u = sqrt(-z), at a complex z or at
    every point of an array of z; real z > 0 on the upper rim of the cut,
    and ``PoleError`` at z = 0, where the delta channel's entry diverges."""
    # + 0j turns an imaginary part -0.0 into +0.0, as in ``radial_m_hat``
    u = np.sqrt(-(np.asarray(z, dtype=complex) + 0j))
    if not u.all():
        raise PoleError("Mhat of the delta channel diverges at z = 0")
    out = np.zeros(u.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = (1.0 - u) / (2.0 * u)
    out[..., 1, 1] = (1.0 - u) / 2.0
    return out


def _geometric_samples(base: float, exponents) -> tuple[list[float], dict[float, float]]:
    """Sample points base^k with the conjugation t -> 1/t paired by exponent,
    so that reciprocals match the stored samples bitwise."""
    ks = sorted(set(int(k) for k in exponents))
    if set(ks) != {-k for k in ks}:
        raise ValueError("exponent grid must be symmetric around 0")
    by_k = {k: float(base) ** k for k in ks}
    return [by_k[k] for k in ks], {by_k[k]: by_k[-k] for k in ks}


def build_one_dim_model() -> ModelSpec:
    """Zero-range model on the line with delta and delta-prime channels."""
    scalings, conj_scalings = _geometric_samples(2.0, GEOMETRIC_EXPONENTS)
    samples = [0.0] + scalings
    conjugate = {0.0: 0.0} | conj_scalings
    p = {0.0: 1.0} | {t: t ** -2.0 for t in scalings}
    xi1 = {0.0: 1.0} | {t: t ** -0.5 for t in scalings}
    xi2 = {0.0: -1.0} | {t: t ** -1.5 for t in scalings}
    family = SymmetryFamily(samples, conjugate, p, [xi1, xi2])
    gram = GramFunction({t: one_dim_gram_closed(t) for t in samples})
    spectral = SpectralModel(
        n=2,
        m_hat=_one_dim_m_hat,
        overlap=np.diag([0.25, 0.25]),
        psi_in_Hminus1=(True, False),
        m_hat_grid=_one_dim_m_hat,
        # u Mhat = diag(1 - u, u - u^2) / 2 with u = sqrt(-x)
        negative_axis=NegativeAxisPolynomial(
            0.5, 1, np.array([np.diag([1.0, 0.0]), np.diag([-1.0, 1.0]),
                              np.diag([0.0, -1.0])]) / 2.0),
    )
    return ModelSpec(KIND_ONE_DIM, {}, family, gram, spectral,
                     ("delta", "delta_prime"))


# ---------------------------------------------------------------------------
# Point interaction in d = 1, 2, 3 dimensions
# ---------------------------------------------------------------------------

SPHERE_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def point_interaction_gram(d: int, t: float) -> float:
    """(h, U_t h) for the delta channel of the free Laplacian in d dims.

    The scaling-invariant Gram at nu = d/2, scaled by the sphere factor;
    at t = 1 it is the squared norm of h = (A0 + I)^-1 delta.
    """
    return _scaling_gram(d / 2.0, t) / ((2.0 * math.pi) ** d / SPHERE_SURFACE[d])


TAYLOR_RADIUS = 0.25


def _expm1(u: complex) -> complex:
    """e^u - 1 for complex u, without cancellation when |u| is small."""
    half = math.sin(0.5 * u.imag)
    return complex(math.expm1(u.real) * math.cos(u.imag) - 2.0 * half * half,
                   math.exp(u.real) * math.sin(u.imag))


def radial_resolvent_closed(nu: float, z: complex) -> complex:
    """I_nu(z) = int_0^inf r^(2nu-1) / ((1+r^2)^2 (r^2 - z)) dr, 0 < nu < 2.

    With w = -z on the principal branch and K = pi / sin(pi nu),

        I = (K/2) (w^(nu-1) - 1 - (nu-1)(w-1)) / (w-1)^2     (nu != 1),
        I = ((w-1) - log w) / (2 (w-1)^2)                     (nu = 1),

    where w^(nu-1) - 1 is the expm1 of (nu-1) log w.  Real z > 0 gives
    the boundary value I(z + i0) from the upper half-plane.  Within
    ``TAYLOR_RADIUS`` of z = -1, where these forms cancel, the Taylor
    series in w - 1 is summed instead.  At z = 0 the integral is finite
    only for nu > 1; otherwise ``PoleError`` is raised.
    """
    s, half_k = _radial_constants(nu)
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        w, log, expm1 = -z.real, math.log, math.expm1
    else:
        # + 0j turns an imaginary part -0.0 into +0.0, so -z puts real
        # z > 0 on the upper rim of the cut.
        w, log, expm1 = -(z + 0j), cmath.log, _expm1
    x = w - 1.0
    if abs(x) < TAYLOR_RADIUS:
        # The coefficients (K/2) binom(nu-1, k) of x^(k-2), (-1)^k / (2k) at
        # nu = 1, shrink in modulus with k: the tail is below |term| / 3.
        coeff = half_k * s * (s - 1.0) / 2.0 if s else 0.25
        term = total = coeff
        power, k = 1.0, 2
        while abs(term) > 1e-17 * abs(total):
            coeff *= (s - k) / (k + 1.0)
            power *= x
            k += 1
            term = coeff * power
            total += term
        return complex(total)
    if w == 0.0:
        if s <= 0.0:
            raise PoleError(f"the resolvent integral diverges at z = 0 for nu = {nu!r}")
        return complex(half_k * (s - 1.0))
    log_w = log(w)
    if not s:
        return complex((x - log_w) / (2.0 * x * x))
    if s > 0.5:
        # w^s - 1 - s x as w (w^(s-1) - 1) + (1-s) x, two terms that vanish
        # as nu -> 2 instead of three that cancel.
        num = w * expm1((s - 1.0) * log_w) + (1.0 - s) * x
    else:
        num = expm1(s * log_w) - s * x
    return complex(half_k * num / (x * x))


def _radial_constants(nu: float) -> tuple[float, float]:
    """s = nu - 1 and K/2 = pi / (2 sin(pi nu)) (0 at nu = 1), the sine's
    argument reduced to [-pi/2, pi/2] so that K keeps its relative accuracy
    as nu nears 1 or 2."""
    if not 0.0 < nu < 2.0:
        raise ValueError(f"the integral converges only for 0 < nu < 2, got {nu!r}")
    s = nu - 1.0
    if not s:
        return s, 0.0
    return s, -0.5 * math.pi / math.sin(
        math.pi * (s if abs(s) <= 0.5 else math.copysign(1.0, s) - s))


def radial_m_hat(nu: float, z: complex) -> complex:
    """Mhat(z) per unit channel prefactor of the point and scaling models.

    With w = -z on the principal branch and K = pi / sin(pi nu),

        Mhat = (K/2) expm1((nu-1) log w)     (nu != 1),
        Mhat = -log(w) / 2                   (nu = 1),

    the closed form of (z+1) (N + (z+1) I_nu(z)) with I_nu the integral of
    ``radial_resolvent_closed`` and N = int r^(2nu-1) / (1+r^2)^2 dr the
    overlap: both equal int r^(2nu-1) (1/(r^2-z) - 1/(r^2+1)) dr, and
    neither form cancels at large |z|.  Real z > 0 gives the boundary
    value Mhat(z + i0) from the upper half-plane.  At z = 0 it is -K/2
    for nu > 1; otherwise ``PoleError``.
    """
    s, half_k = _radial_constants(nu)
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        if z.real == 0.0:
            if s <= 0.0:
                raise PoleError(f"Mhat diverges at z = 0 for nu = {nu!r}")
            return complex(-half_k)
        w, log, expm1 = -z.real, math.log, math.expm1
    else:
        # + 0j turns an imaginary part -0.0 into +0.0, so -z puts real
        # z > 0 on the upper rim of the cut.
        w, log, expm1 = -(z + 0j), cmath.log, _expm1
    log_w = log(w)
    return complex(half_k * expm1(s * log_w) if s else -0.5 * log_w)


def radial_negative_axis(nu: float, prefactor) -> NegativeAxisPolynomial | None:
    """``radial_m_hat`` times the channel prefactor P as a polynomial on the
    negative axis: (K/2) P (u - 1) with u = (-x)^(nu-1); None at nu = 1,
    where Mhat is a logarithm."""
    s, half_k = _radial_constants(nu)
    if not s:
        return None
    p = half_k * np.atleast_2d(prefactor)
    return NegativeAxisPolynomial(s, 0, np.array([-p, p]))


def radial_m_hat_grid(nu: float, z: np.ndarray) -> np.ndarray:
    """``radial_m_hat`` at every point of a finite complex array z.

    Real arithmetic when every z is real and <= 0, as in the scalar
    kernel; otherwise complex, with real z > 0 on the upper rim.  The
    same value and ``PoleError`` at z = 0, with no numpy warning.
    """
    s, half_k = _radial_constants(nu)
    z = np.asarray(z, dtype=complex)
    zero = z == 0.0
    if s <= 0.0 and zero.any():
        raise PoleError(f"Mhat diverges at z = 0 for nu = {nu!r}")
    if z.imag.any() or (z.real > 0.0).any():
        # log 1 = 0 at z = 0, set below; + 0j as in the scalar kernel
        w = np.where(zero, 1.0, -(z + 0j))
        log_w = np.log(w)
        return np.where(zero, complex(-half_k),
                        half_k * np.expm1(s * log_w) if s else -0.5 * log_w)
    # Every z real and <= 0: the same steps on one real array, updated in
    # place.  A grid of 10^4 points then allocates one 80 KB temporary,
    # not six, and leaves the allocator less to map and trim.
    u = np.negative(z.real, out=np.empty(z.shape))
    u[zero] = 1.0
    np.log(u, out=u)
    if s:
        u *= s
        np.expm1(u, out=u)
        u *= half_k
    else:
        u *= -0.5
    u[zero] = -half_k
    out = np.zeros(z.shape, dtype=complex)
    out.real = u
    return out


def radial_resolvent_integral(k: float, z: complex) -> complex:
    """Quadrature of r^k/((1+r^2)^2 (r^2 - z)) over the half line.

    The independent check of ``radial_resolvent_closed`` (k = 2 nu - 1),
    for 0 <= k < 3.  Real z < 0 takes one real quadrature, any other z
    one complex quadrature.  The integrand is the square of
    r^(k/2) / (1 + r^2), over r^2 - z, which stays finite at every node
    (r^k and (1 + r^2)^2 overflow at the largest).
    """
    z = complex(z)
    negative = z.imag == 0.0 and z.real < 0.0
    w = z.real if negative else z
    half_k = 0.5 * k

    def integrand(r):
        q = r ** half_k / (1.0 + r * r)
        return q * q / (r * r - w)

    if negative:
        return complex(integrate_half_line(integrand))
    return integrate_half_line_complex(integrand)


def point_interaction_resolvent(d: int, z: complex) -> complex:
    """((A0 - z)^-1 h, h) for the delta channel in d dims, in closed form."""
    integral = radial_resolvent_closed(d / 2.0, z)
    return (2.0 * math.pi) ** (-d) * SPHERE_SURFACE[d] * integral


def build_point_interaction(d: int) -> ModelSpec:
    """Single delta interaction for the free Laplacian in d = 1, 2, 3."""
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d!r}")
    family = _scaling_family(d / 2.0, 1)
    gram = GramFunction({t: [[point_interaction_gram(d, t)]]
                         for t in family.sample_points})
    nu, prefactor = d / 2.0, (2.0 * math.pi) ** (-d) * SPHERE_SURFACE[d]
    spectral = SpectralModel(
        n=1,
        m_hat=lambda z: np.array([[prefactor * radial_m_hat(nu, z)]]),
        overlap=[[point_interaction_gram(d, 1.0)]],
        psi_in_Hminus1=(d == 1,),
        m_hat_grid=lambda z: (prefactor * radial_m_hat_grid(nu, z))[..., None, None],
        negative_axis=radial_negative_axis(nu, prefactor),
    )
    return ModelSpec(KIND_POINT, {"d": int(d)}, family, gram, spectral,
                     ("delta",))


# ---------------------------------------------------------------------------
# p-adic model
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


SERIES_RTOL = 1e-15
SERIES_CAP = 400


@functools.lru_cache(maxsize=32)
def _padic_scales(p: int, alpha: float) -> np.ndarray:
    """Read-only rows lambda_N, c_N^2, p^-N, c_N and p^-N / (lambda_N + 1)
    over the scales N = -H..H, built once: H is at most ``SERIES_CAP`` and
    ends where lambda_N or p^-N would leave the normal floats."""
    half = min(SERIES_CAP, int(700.0 / (max(alpha, 1.0) * math.log(p))) - 1)
    n, pf = np.arange(-half, half + 1.0), float(p)
    lam = pf ** (alpha * (1.0 - n))
    p_n = pf ** -n
    c = pf ** (-n / 2.0) / (lam + 1.0)
    table = np.array([lam, c ** 2, p_n, c, p_n / (lam + 1.0)])
    table.setflags(write=False)
    return table


def padic_gram(p: int, alpha: float, m: int) -> float:
    """(h, U_{p^m} h) = (p - 1) sum_N c_N c_(N+|m|) over the scale table.

    The series is even in m (shift N by m).  As N -> +inf its terms fall
    like p^-N (c_N <= p^(-N/2)), as N -> -inf like p^(a N), a = 2 alpha - 1
    (c_N <= p^(-N/2) / lambda_N).  The sum runs over 17 decades past
    scales -|m| and 0 at these rates; ``ConvergenceError`` unless its edge
    terms and the geometric bounds of both tails stay within
    ``SERIES_RTOL`` of it.
    """
    m = abs(int(m))
    c = _padic_scales(p, alpha)[3]
    half, a = len(c) // 2, 2.0 * alpha - 1.0
    span = math.log(1e17) / math.log(p)
    lo = max(-half, -m - math.ceil(span / a) - 2)
    hi = min(half - m, math.ceil(span) + 2)
    if lo > hi:
        raise ConvergenceError(f"p-adic Gram series at m = {m} exceeds the scale table")
    terms = c[lo + half:hi + half + 1] * c[lo + m + half:hi + m + half + 1]
    total = (p - 1) * float(terms.sum())
    tail = (p ** (-0.5 * m - hi - 1.0) / (1.0 - 1.0 / p)
            + p ** ((alpha - 0.5) * m - 2.0 * alpha + a * (lo - 1)) / (1.0 - p ** -a))
    bound = (p - 1) * (terms[0] + terms[-1] + tail)
    if not bound <= SERIES_RTOL * total:
        raise ConvergenceError(f"p-adic Gram series at m = {m} not within {SERIES_RTOL:g}")
    return total


# The z-series: a row w_N of the scale table, k with a = k alpha - 1 the
# rate p^(a N) at which its terms fall as N -> -inf, and the factor by
# which p^-N falls across its window.
E_SERIES = (1, 3.0, 1e17)        # c_N^2: E(z)
CLOSED_SERIES = (2, 1.0, 1e17)   # p^-N: the closed Weyl series
M_HAT_SERIES = (4, 2.0, 1e20)    # p^-N / (lambda_N + 1): Mhat(z) / (z + 1)


def _padic_series(p: int, alpha: float, z: complex, series) -> complex:
    """(p - 1) sum_N w_N / (lambda_N - z), w_N the scale-table row of
    ``series`` (``E_SERIES``, ``CLOSED_SERIES`` or ``M_HAT_SERIES``).

    Past n_z, the first scale with lambda_N <= |z|/2, the terms fall like
    p^-N (w_N <= p^-N); as N -> -inf like p^(a N).  The sum runs over
    the series' reach past scales 0 and n_z at these rates;
    ``ConvergenceError`` unless its edge terms and the geometric bounds
    of both tails stay within ``SERIES_RTOL`` of it.
    """
    row, k, reach = series
    table = _padic_scales(p, alpha)
    lam, w, a = table[0], table[row], k * alpha - 1.0
    half, log_p, size = len(lam) // 2, math.log(p), abs(z)
    n_z = half if not size else min(half, max(-half, math.ceil(
        1.0 - (math.log(size) - math.log(2.0)) / (alpha * log_p))))
    span = math.log(reach) / log_p  # the scales over which p^-N falls by reach
    lo = max(-half, min(n_z, 0) - math.ceil(span / a) - 2)
    hi = min(half, max(n_z, 0) + math.ceil(span) + 2)
    lam, w = lam[lo + half:hi + half + 1], w[lo + half:hi + half + 1]
    if not z.imag and z.real > 0.0 and z.real in lam:
        raise PoleError(f"z = {z.real!r} is an eigenvalue lambda_N of A0")
    terms = w / (lam - z)
    total = (p - 1) * complex(terms.sum())
    tail = math.inf  # above the window w_N / |lambda_N - z| <= 2 p^-N / |z|
    if lam[-1] <= 0.5 * size:
        tail = 2.0 * p ** -hi / ((p - 1) * size)
    elif z.real <= 0.0 and alpha < 1.0:  # w_N / lambda_N <= p^((alpha-1) N - alpha)
        tail = p ** ((alpha - 1.0) * (hi + 1) - alpha) / (1.0 - p ** (alpha - 1.0))
    # below the window w_N / |lambda_N - z| <= 2 w_N / lambda_N <= 2 p^(a (N-1) - 1)
    tail += (2.0 * p ** (a * (lo - 2) - 1.0) / (1.0 - p ** -a)
             if lam[0] >= 2.0 * size else math.inf)
    bound = (p - 1) * (abs(terms[0]) + abs(terms[-1]) + tail)
    if not bound <= SERIES_RTOL * abs(total):
        raise ConvergenceError(f"p-adic series at z = {z!r} not within {SERIES_RTOL:g}")
    return total


def padic_resolvent(p: int, alpha: float, z: complex) -> complex:
    """((A0 - z)^-1 h, h) as the series (p - 1) sum_N c_N^2 / (lambda_N - z),
    refused unless its bound is within ``SERIES_RTOL`` of it."""
    return _padic_series(p, alpha, complex(z), E_SERIES)


def padic_m_hat(p: int, alpha: float, z: complex) -> complex:
    """Mhat(z) = (z + 1) (p - 1) sum_N p^-N / ((lambda_N + 1) (lambda_N - z)),
    the Weyl function of the plain triplet: ``PoleError`` at an eigenvalue
    lambda_N, ``ConvergenceError`` where the series' bound exceeds
    ``SERIES_RTOL`` of it."""
    z = complex(z)
    return (z + 1.0) * _padic_series(p, alpha, z, M_HAT_SERIES)


def padic_closed_form_m(p: int, alpha: float) -> Callable[[complex], np.ndarray]:
    """Closed series form of the Weyl function, valid for alpha > 1."""
    if alpha <= 1.0:
        raise ValueError("the closed Weyl series converges only for alpha > 1")
    return lambda z: np.array([[-1.0 / _padic_series(p, alpha, complex(z), CLOSED_SERIES)]])


def build_padic_model(p: int, alpha: float) -> ModelSpec:
    """Fractional p-adic differentiation of order alpha with a delta channel.

    Requires a prime p and alpha > 1/2 (the delta functional is defined
    on the operator domain exactly for such exponents).  The delta lies
    in the form-domain scale exactly when alpha > 1, which also fixes
    whether the admissible homogeneous operator is the Friedrichs or the
    Krein-von Neumann extension.
    """
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    alpha = float(alpha)
    if alpha <= 0.5:
        raise ValueError("alpha must exceed 1/2")
    ts, conjugate = _geometric_samples(p, GEOMETRIC_EXPONENTS)
    family = SymmetryFamily(
        ts,
        conjugate,
        {t: t ** alpha for t in ts},
        [{t: math.sqrt(t) for t in ts}],
    )
    gram = GramFunction(
        {float(p) ** m: [[padic_gram(p, alpha, m)]] for m in GEOMETRIC_EXPONENTS})
    spectral = SpectralModel(
        n=1,
        m_hat=lambda z: np.array([[padic_m_hat(p, alpha, z)]]),
        overlap=[[padic_gram(p, alpha, 0)]],
        psi_in_Hminus1=(alpha > 1.0,),
        closed_form_M=padic_closed_form_m(p, alpha) if alpha > 1.0 else None,
    )
    return ModelSpec(KIND_PADIC, {"p": p, "alpha": alpha}, family, gram,
                     spectral, ("delta",))


# ---------------------------------------------------------------------------
# Scaling-invariant channels in three dimensions
# ---------------------------------------------------------------------------

def c_alpha(alpha: float) -> float:
    """Quadrature of the Gram prefactor integral of y^(3-2a)/(1+y^2)."""
    return integrate_half_line(lambda y: y ** (3.0 - 2.0 * alpha) / (1.0 + y * y))


def h_norm_integral(alpha: float) -> float:
    """Quadrature of y^(2a-1)/(1+y^2)^2; the squared defect norm per unit
    directional density.  The integrand is the square of
    y^(a-1/2) / (1+y^2), which stays finite at every node."""
    return integrate_half_line(
        lambda y: (y ** (alpha - 0.5) / (1.0 + y * y)) ** 2)


def beta_alpha(alpha: float) -> float:
    """Scalar regularization magnitude for orthonormal channels, from the
    two defining quadratures (equals 2 at alpha = 3/2)."""
    return c_alpha(alpha) / h_norm_integral(alpha)


def e_alpha(alpha: float, z: complex) -> complex:
    """Resolvent Gram integral of y^(2a-1)/((1+y^2)^2 (y^2 - z)), in closed form."""
    return radial_resolvent_closed(alpha, z)


def gram_limit_at_one(alpha: float) -> float:
    """Removable-singularity value lim_{t->1} (t^a - t^(2-a))/(t^2 - 1) = a - 1."""
    return float(alpha) - 1.0


def scaling_constants(alpha: float) -> tuple[float, float]:
    """``c_alpha`` and ``h_norm_integral`` in closed form, c = pi / (2 sin(pi (2 - a)))
    = -K/2 of ``_radial_constants`` and (a - 1) c."""
    c_val = -_radial_constants(alpha)[1]
    return c_val, (alpha - 1.0) * c_val


def _scaling_gram(nu: float, t: float) -> float:
    """c_nu (t^nu - t^(2-nu)) / (t^2 - 1), the Gram sample at t of a channel
    with xi(t) = t^-nu per unit channel Gram; the t = 1 limits are filled
    in, and nu = 1 takes the limit t log t / (t^2 - 1)."""
    if nu == 1.0:
        return 0.5 if t == 1.0 else t * math.log(t) / (t * t - 1.0)
    if t == 1.0:
        return scaling_constants(nu)[0] * gram_limit_at_one(nu)
    return scaling_constants(nu)[0] * ((t ** nu - t ** (2.0 - nu)) / (t * t - 1.0))


def _scaling_family(nu: float, n: int) -> SymmetryFamily:
    """Scalings t = 2^k with p(t) = t^-2 and xi(t) = t^-nu on each of n channels."""
    ts, conjugate = _geometric_samples(2.0, GEOMETRIC_EXPONENTS)
    return SymmetryFamily(ts, conjugate, {t: t ** -2.0 for t in ts},
                          [{t: t ** -nu for t in ts} for _ in range(n)])


def build_scaling_invariant_3d(alpha: float, m_gram=None,
                               n: int = 1) -> ModelSpec:
    """Scaling-invariant channels in three dimensions, exponent in (1, 2).

    ``m_gram`` is the Hermitian positive semidefinite matrix of channel
    inner products (m_i, m_j); omitted, it defaults to the orthonormal
    normalization for ``n`` channels.  The closed-form Gram function and
    the predicted unique regularization R = -c_alpha (m_i, m_j) are
    attached; for orthonormal channels so is beta_alpha.
    """
    alpha = float(alpha)
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie strictly inside (1, 2)")
    c_val, d_val = scaling_constants(alpha)
    if m_gram is None:
        m_mat = np.eye(int(n)) / d_val  # orthonormal defect elements
    else:
        m_mat = as_matrix(m_gram)
        if not hermitian_within(m_mat):
            raise ValueError("m_gram must be Hermitian")
        if float(np.linalg.eigvalsh((m_mat + m_mat.conj().T) / 2).min()) < -1e-12:
            raise ValueError("m_gram must be positive semidefinite")
    n = m_mat.shape[0]
    family = _scaling_family(alpha, n)
    gram = GramFunction(
        {t: _scaling_gram(alpha, t) * m_mat for t in family.sample_points})
    overlap = d_val * m_mat
    orthonormal = bool(np.linalg.norm(overlap - np.eye(n)) <= 1e-10)
    spectral = SpectralModel(
        n=n,
        m_hat=lambda z: radial_m_hat(alpha, z) * m_mat,
        overlap=overlap,
        psi_in_Hminus1=(False,) * n,
        m_hat_grid=lambda z: radial_m_hat_grid(alpha, z)[..., None, None] * m_mat,
        negative_axis=radial_negative_axis(alpha, m_mat),
    )
    return ModelSpec(
        KIND_SCALING,
        {"alpha": alpha, "n": n},
        family, gram, spectral,
        tuple(f"channel_{k}" for k in range(n)),
        predicted_R=-c_val * m_mat,
        beta_alpha=c_val / d_val if orthonormal else None,
    )


# ---------------------------------------------------------------------------
# Registry and JSON loading
# ---------------------------------------------------------------------------

MODEL_SUMMARIES = {
    KIND_ONE_DIM: "zero-range delta/delta-prime pair on the line, parity plus scalings",
    KIND_POINT: "single delta interaction for the free Laplacian in d = 1, 2, 3",
    KIND_PADIC: "fractional p-adic differentiation with a delta channel over dilations",
    KIND_SCALING: "scaling-invariant channels in three dimensions, exponent in (1, 2)",
}


def model_from_json(obj: dict) -> ModelSpec:
    """Build a model from {"kind": ..., params...}."""
    kind = obj.get("kind")
    if kind == KIND_ONE_DIM:
        return build_one_dim_model()
    if kind == KIND_POINT:
        return build_point_interaction(int(obj["d"]))
    if kind == KIND_PADIC:
        return build_padic_model(int(obj["p"]), float(obj["alpha"]))
    if kind == KIND_SCALING:
        m_gram = obj.get("m_gram")
        if m_gram is not None:
            from .jsonio import decode_matrix
            m_gram = decode_matrix(m_gram)
        return build_scaling_invariant_3d(float(obj["alpha"]), m_gram,
                                          int(obj.get("n", 1)))
    raise ValueError(f"unknown model kind {kind!r}")


def model_info(spec: ModelSpec) -> dict:
    """JSONable summary: family data, membership flags, Gram samples."""
    from .jsonio import encode_matrix
    info = {
        "kind": spec.kind,
        "params": dict(spec.params),
        "channels": list(spec.channel_names),
        "summary": MODEL_SUMMARIES[spec.kind],
        "family": spec.family.to_json_dict(),
        "psi_in_Hminus1": list(spec.psi_in_Hminus1),
        "gram": {repr(t): encode_matrix(spec.gram.at(t))
                 for t in spec.family.sample_points},
        "overlap": encode_matrix(spec.spectral.overlap),
        "has_closed_form_M": spec.spectral.closed_form_M is not None,
    }
    if spec.predicted_R is not None:
        info["predicted_R"] = encode_matrix(spec.predicted_R)
    if spec.beta_alpha is not None:
        info["beta_alpha"] = spec.beta_alpha
    return info
