"""JSON encoding of complex scalars, vectors and matrices.

Complex numbers are encoded as two-element ``[re, im]`` arrays; vectors
and matrices nest accordingly.  Decoders also accept plain real numbers
(and, for matrices, depth-2 nesting of reals) so that hand-written
inputs like ``[[0.5, 0], [0, -0.5]]`` work on the command line.
"""

from __future__ import annotations

import cmath
import numbers

import numpy as np


def encode_complex(value) -> list[float]:
    z = complex(value)
    return [float(z.real), float(z.imag)]


def encode_vector(vec) -> list[list[float]]:
    return [encode_complex(v) for v in np.asarray(vec).ravel()]


def encode_matrix(mat) -> list[list[list[float]]]:
    m = np.atleast_2d(np.asarray(mat))
    return [[encode_complex(v) for v in row] for row in m]


def decode_complex(obj, name: str = "complex scalar") -> complex:
    """Decode a finite scalar given as number, ``[re, im]`` or ``"re,im"``
    string; ``name`` says in errors what the scalar is."""
    if isinstance(obj, str) and len(obj.split(",")) in (1, 2):
        parts = [float(v) for v in obj.split(",")]
        z = complex(parts[0], parts[1] if len(parts) == 2 else 0.0)
    elif isinstance(obj, numbers.Number):
        z = complex(obj)
    elif isinstance(obj, (list, tuple)) and len(obj) == 2 and all(
        isinstance(v, numbers.Number) for v in obj
    ):
        z = complex(float(obj[0]), float(obj[1]))
    else:
        raise ValueError(f"cannot parse {name} from {obj!r}")
    if not cmath.isfinite(z):
        raise ValueError(f"{name} must be finite, got {obj!r}")
    return z


def _nesting_depth(obj) -> int:
    depth = 0
    while isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return depth + 1
        depth += 1
        obj = obj[0]
    return depth


def decode_matrix(obj) -> np.ndarray:
    """Decode a matrix; depth-2 nesting is real, depth-3 is [re, im] pairs."""
    depth = _nesting_depth(obj)
    if depth == 2:
        return np.asarray(obj, dtype=float).astype(complex)
    if depth == 3:
        return np.asarray(
            [[decode_complex(v) for v in row] for row in obj], dtype=complex
        )
    raise ValueError("matrix JSON must nest 2 deep (real) or 3 deep ([re,im])")


def decode_vector(obj) -> np.ndarray:
    depth = _nesting_depth(obj)
    if depth == 1:
        return np.asarray(obj, dtype=float).astype(complex)
    if depth == 2:
        return np.asarray([decode_complex(v) for v in obj], dtype=complex)
    raise ValueError("vector JSON must nest 1 deep (real) or 2 deep ([re,im])")
