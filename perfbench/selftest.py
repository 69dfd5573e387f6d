"""The benchmark's own tests, kept out of the repository's test suite
(the file name does not match pytest's test_*.py pattern).  Run from the
root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

They run the benchmark itself for about two minutes in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import mpmath
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

Z_POINTS = [mpmath.mpc(0.3, 0.7), mpmath.mpc(-1.5, 0.2), mpmath.mpc(-0.7, 0)]


def _run(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           "--workload", workload, "--seed", "7", "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["verify", "spectrum"])
def test_printed_metric_names_match_benchmark_json(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"]
                for m in bench["end_to_end" if trace == 0 else "per_layer"]}
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = _run("spectrum", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _quad(f):
    return mpmath.quad(f, [0, 1, mpmath.inf])


def _implied_r(m_ref, overlap, resolvent, z):
    """R = -M(z)^-1 - Mhat(z), Mhat(z) = (z+1)(overlap + (z+1)E(z)); constant
    in z exactly when m_ref is the Weyl function of some fixed R."""
    return -1 / m_ref - (z + 1) * (overlap + (z + 1) * resolvent(z))


def _assert_constant(values, tol=1e-12):
    values = [complex(v) for v in values]
    for v in values[1:]:
        assert abs(v - values[0]) <= tol * max(1.0, abs(values[0])), values


@pytest.mark.parametrize("d", [1, 3])
def test_point_closed_forms_against_mpmath_quadrature(d):
    with mpmath.workdps(30):
        const = (2 * mpmath.pi) ** (-d) * (2 if d == 1 else 4 * mpmath.pi)
        overlap = const * _quad(lambda r: r ** (d - 1) / (1 + r * r) ** 2)
        resolvent = lambda z: const * _quad(
            lambda r: r ** (d - 1) / ((1 + r * r) ** 2 * (r * r - z)))
        _assert_constant([_implied_r(reference.point_m(d, complex(z)), overlap, resolvent, z)
                          for z in Z_POINTS])


def test_scaling_closed_form_against_mpmath_quadrature():
    alpha = mpmath.mpf(3) / 2
    with mpmath.workdps(30):
        c = _quad(lambda y: y ** (3 - 2 * alpha) / (1 + y * y))
        d = _quad(lambda y: y ** (2 * alpha - 1) / (1 + y * y) ** 2)
        e = lambda z: _quad(lambda y: y ** (2 * alpha - 1) / ((1 + y * y) ** 2 * (y * y - z)))
        assert abs(d - reference.SCALING_H_NORM_3_2) < 1e-15
        # Orthonormal channel: overlap 1, E = e / d; the implied R is -beta = -c/d = -2.
        implied = [_implied_r(complex(reference.scaling_m(np.eye(1) / d, complex(z))[0, 0]),
                              1, lambda w: e(w) / d, z) for z in Z_POINTS]
        _assert_constant(implied + [-c / d])
        assert abs(c / d - 2) < 1e-20
        # Non-orthonormal channels: M(z) = -(R + Mhat(z))^-1 with R = -c G.
        gram = workloads.seeded_gram(5)
        for z in Z_POINTS:
            zc = complex(z)
            s = float(-c) + (zc + 1) * (float(d) + (zc + 1) * complex(e(z)))
            np.testing.assert_allclose(reference.scaling_m(gram, zc), -np.linalg.inv(s * gram),
                                       rtol=1e-12)


def test_padic_series_against_mpmath_resolvent_series():
    p, alpha = 2, mpmath.mpf(3) / 2
    with mpmath.workdps(40):
        lam = lambda n: mpmath.mpf(p) ** (alpha * (1 - n))
        coeff = lambda n: mpmath.mpf(p) ** (-mpmath.mpf(n) / 2) / (lam(n) + 1)
        series = lambda f: (p - 1) * mpmath.nsum(f, [-mpmath.inf, mpmath.inf])
        overlap = series(lambda n: coeff(n) ** 2)
        resolvent = lambda z: series(lambda n: coeff(n) ** 2 / (lam(n) - z))
        _assert_constant([_implied_r(reference.padic_m(2, 1.5, complex(z)), overlap,
                                     resolvent, z) for z in Z_POINTS], tol=1e-11)
        assert abs(reference.padic_gram(2, 1.5, 0) - float(overlap)) < 1e-15
    assert abs(reference.padic_m(2, 1.5, -1.0)
               - complex(reference.padic_m_mp(2, 1.5, -1.0, dps=60))) < 1e-15


def test_block_fastest_pools_neighbouring_calls():
    n = workloads.BLOCK
    rounds = [np.array([3.0, 1.0] * n + [5.0]), np.array([2.0] * (2 * n) + [4.0])]
    # Two full blocks at their fastest call (1.0), then a last block of
    # one call at its fastest round (4.0).
    assert workloads.block_fastest(rounds) == 2 * n * 1.0 + 4.0


@pytest.mark.parametrize("seed", [1, 2])
def test_every_planted_root_outside_the_named_faults_is_found(seed):
    wl = workloads.SpectrumWorkload(ROOT, seed)
    wl.prepare()
    tally = workloads.Tally()
    wl.round(tally, inprocess=True)
    assert tally.correct, tally.problems
    # Only the two named faults may fail (the n = 2 double root and the
    # near-spectrum evaluation); a change that mends them still passes.
    assert tally.failed <= 2
