import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import singext as sx
from singext import cli
from singext.cli import run
from singext.jsonio import decode_complex, decode_matrix, encode_matrix

SCHEMAS = pathlib.Path(__file__).resolve().parents[1] / "docs" / "schemas"

# The --model inputs of the tests below.
POINT_D3_SPEC = {"kind": "PointInteractionRd", "d": 3}
POINT_D1_SPEC = '{"kind": "PointInteractionRd", "d": 1}'

# The JSON-printing examples of the README's command-line usage.
README_EXAMPLES = [
    ["model", "list"],
    ["model", "info", "--kind", "PAdicVladimirov", "--p", "2", "--alpha", "1.5"],
    ["solve-r", "--kind", "OneDimDeltaDeltaPrime"],
    ["classify", "--kind", "PointInteractionRd", "--d", "3"],
    ["weyl", "--kind", "PAdicVladimirov", "--p", "2", "--alpha", "1.5",
     "--z=-1,0"],
    ["spectrum", "--kind", "PAdicVladimirov", "--p", "2", "--alpha", "1.5",
     "--B", "[[-0.57]]", "--interval=-3,-0.3"],
    ["nonneg", "--kind", "ScalingInvariant3D", "--alpha", "1.5",
     "--B", "[[-1.0]]"],
    ["smatrix", "--B", "[[0]]", "--z", "1,0"],
    ["ladder", "--lambda=-1,0", "--p", "4", "--range=-2,2"],
    ["verify", "--criteria", "1,4,9"],
]


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text(encoding="utf-8"))


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


def test_solve_r_one_dim(capsys):
    code, payload = invoke_json(capsys, "solve-r", "--kind",
                                "OneDimDeltaDeltaPrime")
    assert code == 0
    assert payload["command"] == "solve-r"
    assert payload["output"]["tag"] == "Unique"
    got = decode_matrix(payload["output"]["R"])
    np.testing.assert_allclose(got, np.diag([0.5, -0.5]), atol=1e-10)


def test_solve_r_padic_alpha_one_exits_3(capsys):
    code, payload = invoke_json(capsys, "solve-r", "--kind", "PAdicVladimirov",
                                "--p", "2", "--alpha", "1.0")
    assert code == 3
    assert payload["output"]["tag"] == "NoSolution"


def test_unknown_subcommand_exits_64(capsys):
    code, out = invoke(capsys, "bogus")
    assert code == 64
    assert "usage" in out


def test_no_arguments_prints_usage(capsys):
    code, out = invoke(capsys)
    assert code == 64
    assert "usage" in out


def test_smatrix_zero_coupling_identity(capsys):
    code, payload = invoke_json(capsys, "smatrix", "--B", "[[0]]", "--z", "1,0")
    assert code == 0
    got = decode_matrix(payload["output"]["S"])
    np.testing.assert_array_equal(got, np.eye(1))
    assert payload["output"]["unitary"] is True
    assert "note" in payload["output"]


def test_model_list(capsys):
    code, payload = invoke_json(capsys, "model", "list")
    assert code == 0
    kinds = {entry["kind"] for entry in payload["output"]}
    assert kinds == {"OneDimDeltaDeltaPrime", "PointInteractionRd",
                     "PAdicVladimirov", "ScalingInvariant3D"}


def test_model_info_padic(capsys):
    code, payload = invoke_json(capsys, "model", "info", "--kind",
                                "PAdicVladimirov", "--p", "2", "--alpha", "1.5")
    assert code == 0
    info = payload["output"]
    assert info["psi_in_Hminus1"] == [True]
    assert info["has_closed_form_M"] is True
    assert "gram" in info and "family" in info


def test_classify_point_interaction(capsys):
    code, payload = invoke_json(capsys, "classify", "--kind",
                                "PointInteractionRd", "--d", "3")
    assert code == 0
    assert payload["output"] == {"tag": "UniquePair",
                                 "r": pytest.approx(-1 / (4 * np.pi), abs=1e-10),
                                 "admissible": "KreinVonNeumann"}


def test_classify_rejects_two_channel_model(capsys):
    code, payload = invoke_json(capsys, "classify", "--kind",
                                "OneDimDeltaDeltaPrime")
    assert code == 2
    assert "error" in payload


def test_weyl_matches_library(capsys, padic, padic_r):
    code, payload = invoke_json(capsys, "weyl", "--kind", "PAdicVladimirov",
                                "--p", "2", "--alpha", "1.5", "--z=-1,0")
    assert code == 0
    got = decode_matrix(payload["output"]["M"])
    expected = sx.weyl_m(padic.spectral, padic_r, -1.0).matrix
    np.testing.assert_allclose(got, expected, atol=1e-12)
    assert payload["output"]["closed_form_residual"] <= 1e-10


def test_spectrum_finds_constructed_root(capsys, padic, padic_r):
    b = sx.weyl_m(padic.spectral, padic_r, -1.0).matrix[0, 0].real
    code, payload = invoke_json(capsys, "spectrum", "--kind", "PAdicVladimirov",
                                "--p", "2", "--alpha", "1.5",
                                "--B", json.dumps(encode_matrix([[b]])),
                                "--interval=-3,-0.3", "--num", "200")
    assert code == 0
    assert len(payload["output"]) == 1
    assert payload["output"][0] == pytest.approx(-1.0, abs=1e-8)


def test_nonneg_command(capsys):
    code, payload = invoke_json(capsys, "nonneg", "--kind", "ScalingInvariant3D",
                                "--alpha", "1.5", "--B", "[[-1.0]]")
    assert code == 0
    assert payload["output"]["nonnegative"] is True
    code, payload = invoke_json(capsys, "nonneg", "--kind", "ScalingInvariant3D",
                                "--alpha", "1.5", "--B", "[[0.5]]")
    assert code == 0
    assert payload["output"]["nonnegative"] is False


def test_ladder_command(capsys):
    code, payload = invoke_json(capsys, "ladder", "--lambda=-1,0", "--p", "4",
                                "--range=-2,2")
    assert code == 0
    values = [decode_complex(v) for v in payload["output"]]
    assert values == [-0.0625, -0.25, -1.0, -4.0, -16.0]


def test_sweep_row_count_and_header(capsys):
    code, out = invoke(capsys, "sweep", "--kind", "ScalingInvariant3D",
                       "--alpha", "1.5", "--range=-1,1", "--count", "9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b,verdict"
    assert len(lines) == 10
    verdicts = {}
    for line in lines[1:]:
        b_str, verdict = line.split(",")
        verdicts[float(b_str)] = verdict
    assert verdicts[-1.0] == "true"
    assert verdicts[1.0] == "false"


def test_sweep_homogeneous_check(capsys):
    code, out = invoke(capsys, "sweep", "--kind", "PAdicVladimirov",
                       "--p", "2", "--alpha", "1.5", "--range=-1,1",
                       "--count", "5", "--check", "homogeneous")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1:] == ["-1.0,false", "-0.5,false", "0.0,true",
                         "0.5,false", "1.0,false"]


@pytest.mark.parametrize("check", ["nonneg", "homogeneous"])
def test_sweep_in_blocks_prints_what_one_block_prints(capsys, monkeypatch, check):
    argv = ["sweep", "--kind", "ScalingInvariant3D", "--alpha", "1.5",
            "--range=-1,1", "--count", "11", "--check", check]
    _, whole = invoke(capsys, *argv)
    monkeypatch.setattr(cli, "SWEEP_BLOCK", 4)
    _, blocks = invoke(capsys, *argv)
    assert blocks == whole
    assert len(whole.splitlines()) == 12


def test_byte_identical_repeat_invocations(capsys):
    _, first = invoke(capsys, "solve-r", "--kind", "ScalingInvariant3D",
                      "--alpha", "1.5")
    _, second = invoke(capsys, "solve-r", "--kind", "ScalingInvariant3D",
                       "--alpha", "1.5")
    assert first == second
    _, sweep_one = invoke(capsys, "sweep", "--kind", "ScalingInvariant3D",
                          "--alpha", "1.5", "--range=-1,1", "--count", "5")
    _, sweep_two = invoke(capsys, "sweep", "--kind", "ScalingInvariant3D",
                          "--alpha", "1.5", "--range=-1,1", "--count", "5")
    assert sweep_one == sweep_two


def test_bad_matrix_input_exits_2(capsys):
    code, payload = invoke_json(capsys, "smatrix", "--B", "not-json", "--z", "1,0")
    assert code == 2
    assert "error" in payload


def test_verify_single_fast_criterion(capsys):
    code, out = invoke(capsys, "verify", "--criteria", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["output"][0]["number"] == 2
    assert payload["output"][0]["passed"] is True


def test_model_info_available_for_every_kind(capsys):
    for argv in (["--kind", "OneDimDeltaDeltaPrime"],
                 ["--kind", "PointInteractionRd", "--d", "2"],
                 ["--kind", "PAdicVladimirov", "--p", "3", "--alpha", "0.8"],
                 ["--kind", "ScalingInvariant3D", "--alpha", "1.25"]):
        code, payload = invoke_json(capsys, "model", "info", *argv)
        assert code == 0
        assert payload["output"]["kind"] == argv[1]


def test_model_spec_loaded_from_file(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(POINT_D3_SPEC))
    code, payload = invoke_json(capsys, "classify", "--model", str(path))
    assert code == 0
    assert payload["output"]["tag"] == "UniquePair"


def test_weyl_pole_exits_3(capsys):
    # Mhat(-1) = 0, so the override R = 0 is singular there
    code, payload = invoke_json(capsys, "weyl", "--kind", "ScalingInvariant3D",
                                "--alpha", "1.5", "--R", "[[0.0]]", "--z=-1,0")
    assert code == 3
    assert "singular" in payload["error"]


def test_spectrum_rejects_non_hermitian_coupling(capsys):
    code, payload = invoke_json(capsys, "spectrum", "--kind", "PAdicVladimirov",
                                "--p", "2", "--alpha", "1.5",
                                "--B", "[[[0.0, 1.0]]]", "--interval=-3,-0.3")
    assert code == 2
    assert "error" in payload


def test_spectrum_refuses_a_coupling_of_the_wrong_size(capsys):
    code, payload = invoke_json(capsys, "spectrum", "--kind", "ScalingInvariant3D",
                                "--alpha", "1.5", "--n", "2", "--B", "[[0.3]]",
                                "--interval=-3,-0.1")
    assert code == 2
    assert payload == {"command": "spectrum",
                       "error": "B is 1x1 but the model has n=2"}


def test_matrix_io_round_trip():
    mat = np.array([[0.5 + 1.0j, 0.0], [-2.0, 0.25j]])
    back = decode_matrix(encode_matrix(mat))
    np.testing.assert_array_equal(back, mat)
    assert decode_complex("1,-2") == 1.0 - 2.0j
    assert decode_complex("3.5") == 3.5 + 0.0j


def test_model_info_accepts_inline_json(capsys):
    code, payload = invoke_json(capsys, "model", "info", "--model",
                                POINT_D1_SPEC)
    assert code == 0
    assert payload["output"]["params"] == {"d": 1}


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=lambda a: " ".join(a))
def test_readme_example_envelope_matches_schema(capsys, argv):
    code, payload = invoke_json(capsys, *argv)
    assert code == 0
    jsonschema.validate(payload, load_schema("command_result.schema.json"))
    assert payload["command"] == " ".join(argv[:2 if argv[0] == "model" else 1])


@pytest.mark.parametrize("spec", [POINT_D3_SPEC, json.loads(POINT_D1_SPEC)])
def test_model_inputs_match_schema(spec):
    jsonschema.validate(spec, load_schema("model_spec.schema.json"))


def test_help_exits_0_with_usage(capsys):
    code, out = invoke(capsys, "--help")
    assert code == 0
    assert "usage" in out


def test_command_help_exits_0(capsys):
    code, out = invoke(capsys, "weyl", "-h")
    assert code == 0
    assert "--z" in out


def test_missing_required_flag_exits_2(capsys):
    code, out = invoke(capsys, "weyl", "--kind", "PAdicVladimirov", "--p", "2",
                       "--alpha", "1.5")
    assert code == 2
    assert out == ""


SPECTRUM_ARGS = ["spectrum", "--kind", "PAdicVladimirov", "--p", "2", "--alpha",
                 "1.5", "--B", "[[-0.57]]", "--interval=-3,-0.3"]


@pytest.mark.parametrize("argv", [
    SPECTRUM_ARGS + ["--num", "0"],
    SPECTRUM_ARGS + ["--num", "1"],
    SPECTRUM_ARGS + ["--tol", "nan"],
    ["solve-r", "--kind", "OneDimDeltaDeltaPrime", "--tol", "nan"],
    ["sweep", "--kind", "ScalingInvariant3D", "--alpha", "1.5",
     "--range=-1,1", "--count", "3", "--tol=-1e-10"],
    ["smatrix", "--B", "[[0]]", "--z", "1,0", "--tol", "inf"],
    ["smatrix", "--B", "[[0]]", "--z", "1,0", "--tol", "0"],
], ids=" ".join)
def test_meaningless_tol_or_grid_size_exits_2(capsys, argv):
    # a scan of fewer than 2 points printed [] and a NaN tolerance printed
    # the invalid JSON token NaN, both with a result that meant nothing
    code, out = invoke(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("bad", [["--range=nan,5", "--count", "5"],
                                 ["--range=0,inf", "--count", "5"],
                                 ["--range=-1,1", "--count", "-1"]], ids=" ".join)
def test_sweep_refusal_prints_only_the_envelope(capsys, bad):
    # the CSV header used to precede the error envelope on stdout
    code, out = invoke(capsys, "sweep", "--kind", "ScalingInvariant3D",
                       "--alpha", "1.5", *bad)
    assert code == 2
    payload = json.loads(out)
    assert set(payload) == {"command", "error"} and payload["command"] == "sweep"


def test_model_info_without_model_exits_2(capsys):
    code, payload = invoke_json(capsys, "model", "info")
    assert code == 2
    assert payload["command"] == "model"
    assert "--model" in payload["error"]


def test_python_dash_m_runs_the_cli(capsys):
    src = pathlib.Path(sx.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "singext", "model", "list"],
                          capture_output=True, text=True, check=False,
                          env={**os.environ, "PYTHONPATH": str(src)})
    _, expected = invoke(capsys, "model", "list")
    assert proc.returncode == 0
    assert proc.stdout == expected


@pytest.mark.parametrize("ratio", ["nan", "inf", "-inf"])
def test_ladder_ratio_that_is_not_finite_exits_2(capsys, ratio):
    # a NaN ratio printed the invalid JSON token NaN and exited 0
    code, out = invoke(capsys, "ladder", "--lambda=-1,0", f"--p={ratio}",
                       "--range=-2,2")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("flags", [["--z", "nan,0"], ["--z", "0.5,inf"]])
def test_weyl_z_that_is_not_finite_exits_2_naming_z(capsys, flags):
    # a NaN z reached the backend, whose resolvent matrix was then blamed
    code, payload = invoke_json(capsys, "weyl", "--kind", "OneDimDeltaDeltaPrime",
                                *flags)
    assert code == 2
    assert payload["error"].startswith("z must be finite")


def test_weyl_nan_z_leaves_no_warning_on_stderr():
    src = pathlib.Path(sx.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "singext", "weyl", "--kind",
                           "OneDimDeltaDeltaPrime", "--z", "nan,0"],
                          capture_output=True, text=True, check=False,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2
    assert "z must be finite" in proc.stdout
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("obj", ["nan,0", "1,-inf", "inf", float("nan"),
                                 complex(0.0, float("inf")), [1.0, float("nan")]])
def test_decode_complex_refuses_parts_that_are_not_finite(obj):
    with pytest.raises(ValueError, match="must be finite"):
        decode_complex(obj)
