"""Byte-for-byte stdout and exit code of CLI calls against a recorded corpus.

``golden/cli.json`` lists, per call, the argv, the exit code and the
stdout of ``cli.run``; a null stdout is not compared (the usage text of
an unknown command depends on the terminal width).  A change that alters
numbers on purpose re-records the file and says so in CHANGES.md.
"""

import contextlib
import io
import json
import pathlib

import mpmath
import numpy as np
import pytest

import singext as sx
from singext import acceptance
from singext.cli import run
from test_padic_series import mpmath_series_40

CASES = json.loads((pathlib.Path(__file__).parent / "golden" / "cli.json")
                   .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_golden(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(list(case["argv"]))
    assert code == case["exit_code"]
    if case["stdout"] is not None:
        assert out.getvalue() == case["stdout"]


def test_close_roots_at_a_small_scale_are_recorded_apart():
    # One-dim model at its homogeneous R: M(x) = diag(-2u, 2/u), u = sqrt(-x),
    # so B = diag(b0, b1) has the roots -(b0/2)^2 and -(2/b1)^2, here 3e-11
    # apart, closer than the default tol of 1e-10
    case = next(c for c in CASES if "--interval=-1e-9,-1e-12" in c["argv"])
    b = json.loads(case["argv"][case["argv"].index("--B") + 1])
    want = sorted([-(b[0][0] / 2) ** 2, -(2 / b[1][1]) ** 2])
    got = json.loads(case["stdout"])["output"]
    assert len(got) == 2
    assert all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(got, want)), (got, want)


def test_padic_weyl_at_large_z_is_recorded_on_the_closed_series():
    # p-adic (2, 3/2) at z = -1e6: M from R + Mhat against the closed Weyl
    # series; the assembly of Mhat from E(z) read 8.5e-9 here
    case = next(c for c in CASES if "--z=-1e6,0" in c["argv"])
    assert json.loads(case["stdout"])["output"]["closed_form_residual"] <= 1e-12


def test_criterion_9_weyl_values_are_within_2_eps_of_the_40_digit_closed_series():
    # The recorded "max relative Weyl discrepancy" of criterion 9 is the
    # distance of its 12 p-adic M values to the closed Weyl series rounded
    # to doubles.  Against that series summed at 40 digits, the M values
    # lie within 2 eps (2.7e-16 at most; LAPACK's inverse gave 1.9e-16)
    spec = sx.build_padic_model(2, 1.5)
    r = sx.solve_homogeneous_R(spec.family, spec.gram).matrix
    rng = np.random.default_rng(20240 + 9)
    zs = [complex(-3.0), complex(-0.5)] + [acceptance._random_nonreal_z(rng) for _ in range(10)]
    case = next(c for c in CASES if c["argv"] == ["verify", "--criteria", "1,4,9"])
    recorded = json.loads(case["stdout"])["output"][-1]["detail"]
    worst = max(sx.weyl_m(spec.spectral, r, z).closed_form_residual for z in zs)
    assert f"max relative Weyl discrepancy {worst:.3e}" in recorded
    for z in zs:
        got = sx.weyl_m(spec.spectral, r, z).matrix[0, 0]
        with mpmath.workdps(40):
            want = -1 / mpmath_series_40(2, 1.5, z, "closed")
            err = float(abs(mpmath.mpc(got) - want) / abs(want))
        assert err <= 2 * np.finfo(float).eps, (z, err)
