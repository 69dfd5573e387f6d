"""Tanh-sinh quadrature of improper integrals on the half line.

An integral over [0, inf) is folded onto [0, 1] with y -> 1/y,

    int_0^inf f(y) dy = int_0^1 (f(x) + f(1/x) / x^2) dx,

and [0, 1] is mapped onto the real line by the double-exponential
substitution x = (1 + tanh(pi/2 sinh t)) / 2 (Takahasi and Mori, 1974;
Bailey, Jeyabalan and Li, "A comparison of three high-precision
quadrature schemes", 2005), on which the trapezoidal rule of step
h = 1/32 is summed.  A node next to 0 is computed as 1 / (1 + exp(-2e)),
e = pi/2 sinh t, so that it keeps its relative accuracy; the window runs
from x = 4.9e-148 (so y from 4.9e-148 to 2.0e147) to 1 - x = 7e-19, 278
values of t and 556 nodes y.  The table is built at the first
integral and kept.

Each integral evaluates f once, on the array of every node.  Its error
estimate is the gap between the step-h sum and the step-2h sum over every
other node.  An integral is refused with ``ConvergenceError`` if the
estimate misses ``REL_TOL`` / ``ABS_TOL``, if a term at an end of the
window is not negligible at that tolerance (a tail that decays too slowly
for the window, or an integral that diverges), or if a term is NaN or
infinite.  f runs with numpy's floating-point warnings off: an overflow
that ends in inf or NaN is refused by the last rule, and one that ends
in a quotient by inf gives the term's limit 0.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import ConvergenceError

REL_TOL = 1e-11
ABS_TOL = 1e-14
STEP = 1.0 / 32.0
# t = k STEP for k in [-172, 105]: x from 4.9e-148 up to 1 - 7e-19, where
# the weights have fallen below 1e-17.  The first k is even and there are
# 278 values, so that every other node of the table, from the first, is a
# node of the step-2h rule, in both halves.
_K_FIRST, _K_LAST = -172, 105


@functools.cache
def _table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes y, their weights, and the indices of the four terms at the
    ends of the window."""
    k = np.arange(_K_FIRST, _K_LAST + 1)
    t = k * STEP
    e = 0.5 * np.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * e))
    gap = 1.0 / (1.0 + np.exp(2.0 * e))  # 1 - x
    w = STEP * np.pi * np.cosh(t) * x * gap  # h dx/dt
    nodes = np.concatenate([x, 1.0 / x])
    weights = np.concatenate([w, w / (x * x)])
    n = len(k)
    ends = np.array([0, n - 1, n, 2 * n - 1])
    for a in (nodes, weights, ends):
        a.setflags(write=False)
    return nodes, weights, ends


def _integrate(f: Callable[[np.ndarray], np.ndarray]):
    """The rule on f over [0, inf), as a numpy scalar, real or complex."""
    nodes, weights, ends = _table()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = weights * f(nodes)
    total = terms.sum()
    if not np.isfinite(total):  # inf, NaN, or terms of both infinite signs
        raise ConvergenceError("quadrature: the integrand is not finite at a node")
    estimate = abs(total - 2.0 * terms[::2].sum())
    tol = max(ABS_TOL, REL_TOL * abs(total))
    if not estimate <= tol:
        raise ConvergenceError(
            f"quadrature: error estimate {estimate:.3e} misses the tolerance {tol:.3e}")
    end = abs(terms[ends]).max()
    if not end <= tol:
        raise ConvergenceError(
            f"quadrature: a term {end:.3e} at an end of the window is not negligible "
            f"(tolerance {tol:.3e}); the integral converges too slowly or diverges")
    return total


def integrate_half_line(f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integrate a real-valued f over [0, inf) to ``REL_TOL`` / ``ABS_TOL``.

    f takes the array of nodes and returns its values there.
    """
    return float(_integrate(f))


def integrate_half_line_complex(f: Callable[[np.ndarray], np.ndarray]) -> complex:
    """Integrate a complex-valued f over [0, inf), in one run of the rule."""
    return complex(_integrate(f))


def integrate_real_line(f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integrate a real-valued f over (-inf, inf), folded onto the half line:
    f is evaluated once, on the nodes and their negatives."""

    def folded(y: np.ndarray) -> np.ndarray:
        values = f(np.concatenate([y, -y]))
        return values[:len(y)] + values[len(y):]

    return integrate_half_line(folded)
