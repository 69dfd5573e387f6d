"""Adaptive quadrature of improper integrals on the half line.

Integrals over [0, inf) are compactified with y = tan(theta) and handed
to QUADPACK on [0, pi/2].  The integrands in this package are smooth,
heavy-tailed rational functions (possibly with an integrable endpoint
singularity after substitution), which QUADPACK's extrapolation handles
at the requested ~1e-11 relative accuracy.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

REL_TOL = 1e-11
ABS_TOL = 1e-14
_HALF_PI = np.pi / 2


def integrate_half_line(f: Callable[[float], float],
                        rel_tol: float = REL_TOL,
                        abs_tol: float = ABS_TOL) -> float:
    """Integrate a real-valued f over [0, inf)."""
    from scipy.integrate import quad  # at first use: most work needs none

    def g(theta: float) -> float:
        c = np.cos(theta)
        return f(np.tan(theta)) / (c * c)

    out = quad(g, 0.0, _HALF_PI, epsabs=abs_tol, epsrel=rel_tol,
               limit=200, full_output=1)
    return out[0]


def integrate_half_line_complex(f: Callable[[float], complex],
                                rel_tol: float = REL_TOL,
                                abs_tol: float = ABS_TOL) -> complex:
    """Integrate a complex-valued f over [0, inf), real and imaginary parts separately."""
    re = integrate_half_line(lambda y: f(y).real, rel_tol, abs_tol)
    im = integrate_half_line(lambda y: f(y).imag, rel_tol, abs_tol)
    return complex(re, im)


def integrate_real_line(f: Callable[[float], float],
                        rel_tol: float = REL_TOL,
                        abs_tol: float = ABS_TOL) -> float:
    """Integrate a real-valued f over (-inf, inf), folded onto the half line."""
    return integrate_half_line(lambda y: f(y) + f(-y), rel_tol, abs_tol)
