"""Batch command-line surface with reproducible JSON/CSV output.

One argparse tree: a subparser per command (model list | model info |
solve-r | classify | weyl | spectrum | nonneg | smatrix | ladder | sweep
| verify), each bound to its handler, with the model flags and the
solver ``--tol`` shared through parent parsers.  Run it as ``singext``
or ``python -m singext``; ``singext <command> -h`` lists a command's
flags.  Every command but ``sweep`` prints one JSON envelope {command,
inputs, output, provenance} to stdout; ``sweep`` prints CSV rows.
Complex scalars are passed as "re,im"; matrices as JSON files or inline
JSON (nesting depth 2 for real entries, 3 for [re,im] pairs); outputs
always use [re,im] pairs.  Exit codes: 0 success, 1 verification
mismatch, 2 input or validation error, 3 mathematical failure (no unique
solution where one is required, or a singular matrix at the requested
point), 64 unknown subcommand.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import acceptance, models
from .admissibility import (NoSolution, UniqueSolution, classify_rank_one,
                            rank_one_to_json, solution_to_json,
                            solve_homogeneous_R)
from .errors import ConvergenceError, PoleError
from .jsonio import decode_complex, decode_matrix, encode_matrix
from .spectra_scattering import (S_MATRIX_PROVENANCE_NOTE, RealizationSpec,
                                 is_homogeneous_realization,
                                 is_nonnegative_realization, nonnegative_grid,
                                 s_matrix, spectrum_ladder)
from .symmetry import DEFAULT_TOL, check_tol
from .triplet import HERMITICITY_RTOL, AdmissibleMatrix, CouplingMatrix
from .weyl import find_negative_eigenvalues, weyl_m


# Couplings that ``sweep`` decides per stacked call: the nonnegativity
# kernel holds a few dozen temporaries per coupling, so an unbounded
# --count would otherwise need memory in proportion.
SWEEP_BLOCK = 4096


class _MathFailure(Exception):
    """Internal: a demanded unique solution is unavailable."""


def _load_json_arg(text: str):
    """Parse an argument as inline JSON, falling back to a file path."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if os.path.exists(text):
            with open(text, "r", encoding="utf-8") as fh:
                return json.load(fh)
        raise ValueError(f"{text!r} is neither inline JSON nor an existing file")


def tolerance(text: str) -> float:
    """argparse type of ``--tol``: a finite number above 0 (``check_tol``)."""
    value = float(text)
    try:
        return check_tol(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def ladder_ratio(text: str) -> float:
    """argparse type of ``ladder --p``: a finite number."""
    if np.isfinite(float(text)):
        return float(text)
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


def grid_size(text: str) -> int:
    """argparse type of ``--num``: an integer of at least 2, accepted and
    echoed in the ``spectrum`` envelope; no search uses a grid."""
    if int(text) >= 2:
        return int(text)
    raise argparse.ArgumentTypeError(f"must be at least 2, got {text!r}")


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("interval must be 'lo,hi'")
    return float(parts[0]), float(parts[1])


def _model_from_args(args) -> models.ModelSpec:
    if args.model:
        return models.model_from_json(_load_json_arg(args.model))
    if args.kind is None:
        raise ValueError("provide --model JSON or --kind with its parameters")
    obj = {"kind": args.kind}
    for key in ("d", "p", "alpha", "n"):
        value = getattr(args, key)
        if value is not None:
            obj[key] = value
    if args.m_gram:
        obj["m_gram"] = _load_json_arg(args.m_gram)
    return models.model_from_json(obj)


def _solve_unique_r(spec: models.ModelSpec, tol: float) -> np.ndarray:
    sol = solve_homogeneous_R(spec.family, spec.gram, tol)
    if not isinstance(sol, UniqueSolution):
        raise _MathFailure(
            f"model admits no unique homogeneous R (got {sol.tag})")
    return sol.matrix


def _emit(command: str, inputs: dict, output, provenance: list[str]) -> None:
    envelope = {"command": command, "inputs": inputs, "output": output,
                "provenance": provenance}
    print(json.dumps(envelope, sort_keys=True))


def _cmd_model(args) -> int:
    if args.action == "list":
        out = [{"kind": kind, "summary": models.MODEL_SUMMARIES[kind]}
               for kind in sorted(models.MODEL_SUMMARIES)]
        _emit("model list", {}, out, ["model registry"])
        return 0
    spec = _model_from_args(args)
    _emit("model info", {"kind": spec.kind, "params": dict(spec.params)},
          models.model_info(spec), ["model construction", "symmetry family",
                                    "Gram data"])
    return 0


def _cmd_solve_r(args) -> int:
    spec = _model_from_args(args)
    sol = solve_homogeneous_R(spec.family, spec.gram, args.tol)
    _emit("solve-r", {"kind": spec.kind, "params": dict(spec.params),
                      "tol": args.tol},
          solution_to_json(sol), ["homogeneity system for R"])
    return 3 if isinstance(sol, NoSolution) else 0


def _cmd_classify(args) -> int:
    spec = _model_from_args(args)
    verdict = classify_rank_one(spec.family, spec.gram,
                                spec.psi_in_Hminus1[0], args.tol)
    _emit("classify", {"kind": spec.kind, "params": dict(spec.params),
                       "tol": args.tol},
          rank_one_to_json(verdict),
          ["rank-one trichotomy", "homogeneity system for R"])
    return 0


def _cmd_weyl(args) -> int:
    spec = _model_from_args(args)
    if args.R:
        reg = decode_matrix(_load_json_arg(args.R))
    else:
        reg = _solve_unique_r(spec, args.tol)
    z = decode_complex(args.z, "z")
    evaluation = weyl_m(spec.spectral, reg, z)
    out = {"z": [z.real, z.imag], "M": encode_matrix(evaluation.matrix),
           "closed_form_residual": evaluation.closed_form_residual}
    _emit("weyl", {"kind": spec.kind, "params": dict(spec.params),
                   "z": [z.real, z.imag]},
          out, ["Weyl function via the linear fractional transform"])
    return 0


def _cmd_spectrum(args) -> int:
    spec = _model_from_args(args)
    reg = _solve_unique_r(spec, args.tol)
    coupling = decode_matrix(_load_json_arg(args.B))
    interval = _parse_interval(args.interval)
    roots = find_negative_eigenvalues(spec.spectral, reg, coupling, interval,
                                      tol=args.tol)
    _emit("spectrum", {"kind": spec.kind, "params": dict(spec.params),
                       "interval": list(interval), "num": args.num,
                       "tol": args.tol},
          roots, ["negative-axis eigenvalue search",
                  "resolvent-difference kernel"])
    return 0


def _cmd_nonneg(args) -> int:
    spec = _model_from_args(args)
    reg = _solve_unique_r(spec, args.tol)
    coupling = CouplingMatrix(decode_matrix(_load_json_arg(args.B)))
    report = is_nonnegative_realization(
        RealizationSpec(coupling, AdmissibleMatrix(reg), spec.family),
        args.tol)
    _emit("nonneg", {"kind": spec.kind, "params": dict(spec.params),
                     "tol": args.tol},
          report.to_json(), ["nonnegativity criterion in Loewner order"])
    return 0


def _cmd_smatrix(args) -> int:
    coupling = decode_matrix(_load_json_arg(args.B))
    z = decode_complex(args.z, "z")
    result = s_matrix(coupling, z, args.tol)
    out = {"z": [z.real, z.imag], "S": encode_matrix(result.matrix),
           "unitary": result.unitary, "contractive": result.contractive,
           "unitary_defect": result.unitary_defect,
           "max_singular_value": result.max_singular_value,
           "note": S_MATRIX_PROVENANCE_NOTE}
    _emit("smatrix", {"z": [z.real, z.imag], "tol": args.tol}, out,
          ["Cayley-type scattering matrix"])
    return 0


def _cmd_ladder(args) -> int:
    lam = decode_complex(args.lambda0, "lambda")
    a_str, b_str = args.n_range.split(",")
    points = spectrum_ladder(lam, args.p, (int(a_str), int(b_str)))
    _emit("ladder", {"lambda": [lam.real, lam.imag], "p": args.p,
                     "range": [int(a_str), int(b_str)]},
          [[v.real, v.imag] for v in points],
          ["geometric spectrum ladder of homogeneous realizations"])
    return 0


def _cmd_sweep(args) -> int:
    spec = _model_from_args(args)
    if spec.n != 1:
        raise ValueError("sweep drives a scalar coupling; the model must have n=1")
    reg = AdmissibleMatrix(_solve_unique_r(spec, args.tol))
    lo, hi = _parse_interval(args.b_range)
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"--range must be finite, got {args.b_range!r}")
    bs = np.linspace(lo, hi, args.count)  # refuses a negative count before the header
    writer = csv.writer(sys.stdout, lineterminator="\r\n")
    writer.writerow(["b", "verdict"])
    for start in range(0, len(bs), SWEEP_BLOCK):
        block = bs[start:start + SWEEP_BLOCK]
        if args.check == "nonneg":
            verdicts = nonnegative_grid(block.reshape(-1, 1, 1), reg,
                                        args.tol).tolist()
        else:
            verdicts = [is_homogeneous_realization(
                RealizationSpec(CouplingMatrix([[b]]), reg, spec.family),
                args.tol) for b in block]
        for b, verdict in zip(block.tolist(), verdicts):
            writer.writerow([repr(b), "true" if verdict else "false"])
    return 0


def _cmd_verify(args) -> int:
    numbers = None
    if args.criteria:
        numbers = [int(v) for v in args.criteria.split(",")]
    results = acceptance.run_criteria(numbers)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"criterion {res.number}: {status} - {res.title}",
              file=sys.stderr)
    _emit("verify", {"criteria": numbers or sorted(acceptance.CRITERIA)},
          [res.to_json() for res in results],
          ["reference-value verification suite"])
    return 0 if all(res.passed for res in results) else 1


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The command tree, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="singext",
        epilog=f"Tolerance defaults: family/solver checks {DEFAULT_TOL:g}, "
               f"Hermiticity {HERMITICITY_RTOL:g} (relative), unitarity 1e-12; "
               "see --help of each command.")
    commands = parser.add_subparsers(title="commands", metavar="<command>")

    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--model",
                             help="model spec as inline JSON or a file path")
    model_flags.add_argument("--kind", choices=sorted(models.MODEL_SUMMARIES),
                             help="model kind (alternative to --model)")
    model_flags.add_argument("--d", type=int,
                             help="dimension for PointInteractionRd")
    model_flags.add_argument("--p", type=int, help="prime for PAdicVladimirov")
    model_flags.add_argument(
        "--alpha", type=float,
        help="exponent for PAdicVladimirov / ScalingInvariant3D")
    model_flags.add_argument("--n", type=int,
                             help="channel count for ScalingInvariant3D")
    model_flags.add_argument("--m-gram", dest="m_gram",
                             help="channel Gram matrix for ScalingInvariant3D")
    solver_flags = argparse.ArgumentParser(add_help=False,
                                           parents=[model_flags])
    solver_flags.add_argument(
        "--tol", type=tolerance, default=DEFAULT_TOL,
        help="solver, root-merging and criterion tolerance (default %(default)s)")

    def command(name, handler, summary, parents=()):
        sub = commands.add_parser(name, help=summary, parents=parents)
        sub.set_defaults(handler=handler)
        return sub

    sub = command("model", _cmd_model,
                  "enumerate model kinds (list), or the family, flags and "
                  "Gram samples of one model (info)", [model_flags])
    sub.add_argument("action", choices=["list", "info"])
    command("solve-r", _cmd_solve_r, "solve the homogeneity system for R",
            [solver_flags])
    command("classify", _cmd_classify,
            "rank-one trichotomy for an n=1 model", [solver_flags])
    sub = command("weyl", _cmd_weyl, "Weyl matrix M(z) of a model",
                  [solver_flags])
    sub.add_argument("--z", required=True, help="spectral point as 're,im'")
    sub.add_argument("--R", help="override R (inline JSON or file)")
    sub = command("spectrum", _cmd_spectrum,
                  "negative-axis eigenvalues of a realization", [solver_flags])
    sub.add_argument("--B", required=True, help="coupling matrix")
    sub.add_argument("--interval", required=True, help="'lo,hi' below 0")
    sub.add_argument("--num", type=grid_size, default=2000,
                     help="an integer >= 2 (default 2000), accepted and "
                          "echoed in the envelope; no search uses a grid: "
                          "several channels take the exact route, and one "
                          "channel brackets its one root to 2 ulp, a stop "
                          "that --tol does not set")
    sub = command("nonneg", _cmd_nonneg,
                  "nonnegativity criterion for a realization", [solver_flags])
    sub.add_argument("--B", required=True, help="coupling matrix")
    sub = command("smatrix", _cmd_smatrix,
                  "scattering matrix S(z) for a coupling matrix")
    sub.add_argument("--B", required=True, help="coupling matrix")
    sub.add_argument("--z", required=True, help="spectral point as 're,im'")
    sub.add_argument("--tol", type=tolerance, default=1e-12,
                     help="unitarity/contractivity tolerance (default 1e-12)")
    sub = command("ladder", _cmd_ladder, "geometric spectrum ladder")
    sub.add_argument("--lambda", dest="lambda0", required=True,
                     help="base spectral point as 're,im'")
    sub.add_argument("--p", type=ladder_ratio, required=True, help="ladder ratio")
    sub.add_argument("--range", dest="n_range", required=True,
                     help="inclusive integer range 'a,b'")
    sub = command("sweep", _cmd_sweep, "CSV sweep of a scalar coupling",
                  [solver_flags])
    sub.add_argument("--range", dest="b_range", required=True,
                     help="'lo,hi' of the scalar coupling b")
    sub.add_argument("--count", type=int, required=True)
    sub.add_argument("--check", choices=["nonneg", "homogeneous"],
                     default="nonneg")
    sub = command("verify", _cmd_verify,
                  "run the reference-value verification suite")
    sub.add_argument("--criteria",
                     help="comma-separated criterion numbers (default all)")
    return parser, commands.choices


def run(argv: list[str]) -> int:
    """Execute one command; returns the exit code."""
    parser, commands = _build_parser()
    if not argv or (argv[0] not in commands
                    and argv[0] not in ("-h", "--help")):
        parser.print_help()
        return 64
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported with the usage of the command, not of the tree
            commands[argv[0]].error("unrecognized arguments: "
                                    + " ".join(extra))
        return args.handler(args)
    except SystemExit as exc:  # argparse --help or argument errors
        code = exc.code
        return code if isinstance(code, int) else 2
    except (_MathFailure, PoleError, ConvergenceError) as exc:
        error, code = str(exc), 3
    except (ValueError, KeyError, OSError) as exc:
        error, code = str(exc), 2
    print(json.dumps({"command": argv[0], "error": error}, sort_keys=True))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
