"""The functions the benchmark wraps or rebinds by name still exist.

``perfbench/tracing.py`` replaces each ``(module, attr)`` of its
``TARGETS`` with a timed wrapper, and ``perfbench/workloads.py`` rebinds
``acceptance.weyl_m``, ``acceptance.s_matrix`` and ``weyl.weyl_m`` to
record calls.  A rename in ``singext`` would otherwise surface only in a
benchmark run.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REBOUND = [("acceptance", "weyl_m"), ("acceptance", "s_matrix"), ("weyl", "weyl_m")]
TARGETS = [(module, attr) for module, attr, _ in _tracing().TARGETS]


@pytest.mark.parametrize("module, attr", TARGETS + REBOUND,
                         ids=[f"{m}.{a}" for m, a in TARGETS + REBOUND])
def test_benchmark_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"singext.{module}"), attr))


def test_acceptance_criteria_are_wrapped_by_number():
    from singext import acceptance
    assert sorted(acceptance.CRITERIA) == list(range(1, 10))
    assert all(callable(fn) for fn in acceptance.CRITERIA.values())
