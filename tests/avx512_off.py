"""The AVX-512 dispatch targets of the running numpy, for NPY_DISABLE_CPU_FEATURES.

numpy picks its SIMD loops when it is imported.  With these targets named
in NPY_DISABLE_CPU_FEATURES it runs the loops of an AVX2-only machine.
numpy warns about a name it does not know, so the names come from the
numpy that runs: its dispatch targets that are AVX-512 (X86_V4 and the
AVX512 groups) and that this CPU supports.  The list is empty where
there are none.

    NPY_DISABLE_CPU_FEATURES="$(python tests/avx512_off.py)" python -m pytest ...
"""

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath


def targets() -> list[str]:
    return [name for name in _umath.__cpu_dispatch__
            if (name == "X86_V4" or "AVX512" in name) and _umath.__cpu_features__.get(name)]


if __name__ == "__main__":
    print(" ".join(targets()))
