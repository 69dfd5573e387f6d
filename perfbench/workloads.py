"""The benchmark's workloads: model sets, seeded inputs, rounds and checks.

Each workload is a closed loop with one client that repeats whole
rounds of the same operations.  A round returns its timings; every
operation's output is checked against ``reference`` (values computed
apart from singext) or against mathematical properties, and tallied.
The two faults named in README.md are marked ``known_fault``: they count
as failed operations without making the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time

import numpy as np

from singext import acceptance, admissibility, cli, models, weyl

import reference

clock = time.perf_counter

SEARCH_INTERVAL = (-3.0, -0.3)
ROOT_TOL = 1e-8
REF_TOL = 1e-8
PROPERTY_TOL = 1e-10
HOMOGENEITY_TOL = 1e-9
CLI_TIMEOUT_S = 120
# Grid anchors per spectrum model: nonreal (Re z, Im z) and negative x.
NONREAL_ANCHORS = [(-2.5, 0.3), (-1.5, 2.0), (-0.5, 1.0), (0.5, 0.6), (1.5, 2.5), (2.5, 1.5)]
NEGATIVE_ANCHORS = [-3.5, -2.0, -0.5]
# Grid passes per spectrum round in end-to-end runs, alternating with the
# searches; a traced round makes one.
GRID_PASSES = 2
# Neighbouring calls of a recorded call sequence are pooled in blocks of
# this many (see block_fastest).
BLOCK = 100


class Tally:
    """Operations attempted and failed; ``correct`` turns false on any
    failure that is not a known fault."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def record(self, ok: bool, what: str, known_fault: bool = False) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if not known_fault:
            self.correct = False
            self.problems.append(what)

    def take_problems(self, other: "Tally", where: str) -> None:
        """Any failure in `other` makes this tally incorrect; other's
        operations are not counted here."""
        if not other.correct:
            self.correct = False
            self.problems += [f"{where}: {p}" for p in other.problems]


def seeded_gram(seed: int) -> np.ndarray:
    """Hermitian positive definite, non-orthonormal 3x3 channel Gram."""
    rng = np.random.default_rng([seed, 3])
    a = rng.normal(size=(3, 3))
    return a @ a.T / 3.0 + 0.5 * np.eye(3)


def model_builders(workload: str, seed: int) -> dict:
    """name -> builder; each builder calls singext through its module
    attributes, so a tracer installed later sees the calls."""
    common = {
        "one_dim": lambda: models.build_one_dim_model(),
        "point_d1": lambda: models.build_point_interaction(1),
        "point_d3": lambda: models.build_point_interaction(3),
        "padic_2_1.5": lambda: models.build_padic_model(2, 1.5),
    }
    if workload == "verify":
        return common | {
            "point_d2": lambda: models.build_point_interaction(2),
            "padic_2_1.0": lambda: models.build_padic_model(2, 1.0),
            "scaling_n1": lambda: models.build_scaling_invariant_3d(1.5),
        }
    if workload == "spectrum":
        gram = seeded_gram(seed)
        return common | {
            "padic_3_0.75": lambda: models.build_padic_model(3, 0.75),
            "scaling_n1": lambda: models.build_scaling_invariant_3d(1.5),
            "scaling_n2": lambda: models.build_scaling_invariant_3d(1.5, n=2),
            "scaling_n3": lambda: models.build_scaling_invariant_3d(1.5, gram),
        }
    raise ValueError(f"unknown workload {workload!r}")


def build_models(workload: str, seed: int) -> dict:
    """Build the workload's models and solve their R: name -> (spec, R or None)."""
    out = {}
    for name, build in model_builders(workload, seed).items():
        spec = build()
        sol = admissibility.solve_homogeneous_R(spec.family, spec.gram)
        out[name] = (spec, getattr(sol, "matrix", None))
    return out


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def block_fastest(rounds: list[np.ndarray]) -> float:
    """Time of a call sequence that every round repeats: its calls in
    blocks of BLOCK neighbours, each block costing BLOCK times its fastest
    call over all rounds.  Neighbouring calls cost about the same, and a
    block pools BLOCK x rounds samples, so it finds the machine's fast
    moments that a single call's few repeats miss."""
    n = min(len(r) for r in rounds)
    x = np.stack([r[:n] for r in rounds])
    return sum(x[:, a:a + BLOCK].shape[1] * float(x[:, a:a + BLOCK].min())
               for a in range(0, n, BLOCK))


class Timings:
    """What the rounds of a run timed: the fastest repeat of each timed
    unit, and every round's per-call times of each recorded call
    sequence (a unit whose value is a list)."""

    def __init__(self):
        self.fastest: dict[str, float] = {}
        self.calls: dict[str, list[np.ndarray]] = {}

    def add(self, units: dict) -> None:
        for unit, elapsed in units.items():
            if isinstance(elapsed, list):
                self.calls.setdefault(unit, []).append(np.asarray(elapsed, dtype=float))
            else:
                self.fastest[unit] = min(self.fastest.get(unit, elapsed), elapsed)

    def fastest_s(self, prefix: str) -> float:
        return sum(v for k, v in self.fastest.items() if k.startswith(prefix))

    def calls_s(self, prefix: str) -> float:
        return sum(block_fastest(r) for k, r in self.calls.items() if k.startswith(prefix))

    def call_count(self, prefix: str) -> int:
        """Calls per round in the sequences under `prefix`."""
        return sum(len(r[0]) for k, r in self.calls.items() if k.startswith(prefix))


def recording(fn, times: list):
    """`fn`, appending the wall time of each call to `times`."""
    def call(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            times.append(clock() - start)
    return call


def _scale(m: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(m)))


# ---------------------------------------------------------------------------
# CLI calls
# ---------------------------------------------------------------------------

def cli_subprocess(root: str, argv: list[str]) -> tuple[int, str, float]:
    """One call in a fresh interpreter through the console-script entry
    point singext.cli:main; returns (exit code, stdout, wall seconds)."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    start = clock()
    proc = subprocess.run([sys.executable, "-c", "from singext.cli import main; main()", *argv],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, clock() - start


def cli_inprocess(argv: list[str]) -> tuple[int, str, float]:
    """One call through cli.run in this interpreter, stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    start = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), clock() - start


def _envelope(stdout: str):
    return json.loads(stdout)["output"]


def _close(a, b, tol) -> bool:
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(b)))


def _pair(entry) -> complex:
    return complex(entry[0], entry[1])


def check_model_list(stdout):
    kinds = sorted(item["kind"] for item in _envelope(stdout))
    return kinds == sorted([models.KIND_ONE_DIM, models.KIND_POINT,
                            models.KIND_PADIC, models.KIND_SCALING])


def check_model_info(stdout):
    out = _envelope(stdout)
    grams = {float(t): _pair(mat[0][0]) for t, mat in out["gram"].items()}
    expect = {2.0 ** m: reference.padic_gram(2, 1.5, m) for m in range(-3, 4)}
    return (out["kind"] == models.KIND_PADIC and out["has_closed_form_M"]
            and sorted(grams) == sorted(expect)
            and all(_close(grams[t], expect[t], 1e-10) for t in expect)
            and _close(_pair(out["overlap"][0][0]), reference.padic_gram(2, 1.5, 0), 1e-10))


def check_solve_r(stdout):
    out = _envelope(stdout)
    r = np.array([[_pair(e) for e in row] for row in out["R"]])
    return out["tag"] == "Unique" and float(np.abs(r - np.diag([0.5, -0.5])).max()) <= 1e-10


def check_classify(stdout):
    out = _envelope(stdout)
    return out["tag"] == "UniquePair" and out["admissible"] == "KreinVonNeumann"


def check_weyl_padic(stdout):
    m = _pair(_envelope(stdout)["M"][0][0])
    return _close(m, reference.padic_m(2, 1.5, -1.0), 1e-9)


def check_weyl_point3(stdout):
    m = _pair(_envelope(stdout)["M"][0][0])
    return _close(m, reference.point_m(3, -1.0), REF_TOL)


def check_spectrum(stdout):
    roots = _envelope(stdout)
    return (len(roots) == 1
            and abs(roots[0] - reference.padic_root(2, 1.5, -0.57, -1.0)) <= ROOT_TOL)


def check_nonneg(stdout):
    # M(x) = 1/(2 sqrt(-x)) > 0 on x < 0, so b = -1 creates no eigenvalue below 0.
    return _envelope(stdout)["nonnegative"] is True


def check_smatrix(stdout):
    out = _envelope(stdout)
    s = np.array([[_pair(e) for e in row] for row in out["S"]])
    return (out["unitary"] is True and np.array_equal(s, np.eye(1))
            and float(np.linalg.norm(s.conj().T @ s - np.eye(1))) <= 1e-12)


def check_ladder(stdout):
    expect = [[-1.0 * 4.0 ** k, 0.0] for k in range(-2, 3)]
    return _envelope(stdout) == expect


def check_sweep(stdout):
    rows = list(csv.reader(io.StringIO(stdout, newline="")))
    if rows[0] != ["b", "verdict"] or len(rows) != 201:
        return False
    # Nonnegative exactly when b <= 0: for b > 0, b = 1/(2 sqrt(-x)) at x = -1/(4 b^2).
    expect = [[repr(float(b)), "true" if b <= 0 else "false"]
              for b in np.linspace(-5.0, 5.0, 200)]
    return rows[1:] == expect


README_CALLS = [
    ("model-list", ["model", "list"], check_model_list),
    ("model-info", ["model", "info", "--kind", "PAdicVladimirov", "--p", "2",
                    "--alpha", "1.5"], check_model_info),
    ("solve-r", ["solve-r", "--kind", "OneDimDeltaDeltaPrime"], check_solve_r),
    ("classify", ["classify", "--kind", "PointInteractionRd", "--d", "3"], check_classify),
    ("weyl", ["weyl", "--kind", "PAdicVladimirov", "--p", "2", "--alpha", "1.5",
              "--z=-1,0"], check_weyl_padic),
    ("spectrum", ["spectrum", "--kind", "PAdicVladimirov", "--p", "2", "--alpha", "1.5",
                  "--B", "[[-0.57]]", "--interval=-3,-0.3"], check_spectrum),
    ("nonneg", ["nonneg", "--kind", "ScalingInvariant3D", "--alpha", "1.5",
                "--B", "[[-1.0]]"], check_nonneg),
    ("smatrix", ["smatrix", "--B", "[[0]]", "--z", "1,0"], check_smatrix),
    ("ladder", ["ladder", "--lambda=-1,0", "--p", "4", "--range=-2,2"], check_ladder),
    ("sweep", ["sweep", "--kind", "ScalingInvariant3D", "--alpha", "1.5",
               "--range=-5,5", "--count", "200", "--check", "nonneg"], check_sweep),
]
CLI_LABELS = [label for label, _, _ in README_CALLS]


class Workload:
    """Base: ``prepare`` is the main process's set-up; ``round`` runs one
    closed-loop round and returns the wall time of each timed unit (one
    grid evaluation, a CLI call, the part of a criterion or search outside
    its recorded calls), or the list of per-call times of a recorded call
    sequence; ``Timings`` gathers them over the run, and ``pass_s`` makes
    one pass of the workload from them.  PROBE is the CLI call (label,
    argv, check) that ``probe`` runs in a fresh interpreter, a fixed
    number of times per run, outside the rounds."""

    name = ""
    PROBE = None
    grid_passes = 1

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.stdout_seen: dict[str, str] = {}

    def call(self, argv, inprocess: bool):
        return cli_inprocess(argv) if inprocess else cli_subprocess(self.root, argv)

    def probe(self, tally: Tally) -> float:
        label, argv, check = self.PROBE
        return self.checked_call(tally, label, argv, check, inprocess=False)

    def checked_call(self, tally: Tally, label: str, argv, check, inprocess: bool) -> float:
        """Run one CLI call, check it and its byte-identity with earlier
        repeats; returns its wall latency."""
        code, stdout, latency = self.call(argv, inprocess)
        try:
            ok = code == 0 and bool(check(stdout))
        except (ValueError, KeyError, IndexError, TypeError):
            ok = False
        first = self.stdout_seen.setdefault(label, stdout)
        tally.record(ok and stdout == first, f"cli {label}")
        return latency


class VerifyWorkload(Workload):
    """acceptance.run_criteria() with all 9 criteria; the probe is
    `singext verify --criteria 1`.  A round records each call the
    criteria make to RECORDED, and times the rest of each criterion and
    of the pass."""

    name = "verify"
    PROBE = ("verify-1", ["verify", "--criteria", "1"],
             lambda out: _envelope(out)[0]["passed"] is True)
    # The functions that take nearly all of a pass, through acceptance's
    # bindings: weyl_m (criteria 4, 5, 6, 9) and s_matrix (criterion 7).
    RECORDED = ("weyl_m", "s_matrix")

    def prepare(self):
        # The criteria build their own models; set-up cost is measured by
        # the fresh-interpreter probes (setup_probe.py).
        self.details = None

    @contextlib.contextmanager
    def stopwatch(self, units: dict):
        """Record into `units` each criterion's calls to RECORDED, as
        "<function>:<criterion>" lists, and the rest of its wall time as
        "rest:<criterion>": clock pairs only, no spans."""
        criteria = acceptance.CRITERIA
        saved = dict(criteria)
        saved_fns = {name: getattr(acceptance, name) for name in self.RECORDED}

        def timed(number, fn):
            def run():
                lists = {name: units.setdefault(f"{name}:{number}", [])
                         for name in self.RECORDED}
                for name, times in lists.items():
                    setattr(acceptance, name, recording(saved_fns[name], times))
                start = clock()
                try:
                    return fn()
                finally:
                    elapsed = clock() - start
                    for name, original in saved_fns.items():
                        setattr(acceptance, name, original)
                    units[f"rest:{number}"] = elapsed - sum(map(sum, lists.values()))
            return run

        criteria.update({k: timed(k, fn) for k, fn in saved.items()})
        try:
            yield
        finally:
            criteria.update(saved)

    def round(self, tally: Tally, inprocess: bool) -> dict:
        units: dict = {}
        with self.stopwatch(units):
            start = clock()
            results = acceptance.run_criteria()
            elapsed = clock() - start
        # What run_criteria spends outside the criteria.
        units["rest:pass"] = elapsed - sum(v if k.startswith("rest:") else sum(v)
                                           for k, v in units.items())
        # The same detail text and the same number of recorded calls as the
        # first pass.
        details = [(r.number, r.title, r.detail,
                    [len(units[f"{name}:{r.number}"]) for name in self.RECORDED])
                   for r in results]
        self.details = self.details or details
        for r in results:
            tally.record(r.passed and details == self.details, f"criterion {r.number}")
        return units

    @staticmethod
    def criterion_s(timings: Timings, number: int) -> float:
        return (timings.calls_s(f"weyl_m:{number}") + timings.calls_s(f"s_matrix:{number}")
                + timings.fastest[f"rest:{number}"])

    @staticmethod
    def pass_s(timings: Timings) -> float:
        return timings.calls_s("") + timings.fastest_s("rest:")

    def end_to_end(self, timings: Timings, probes: list[float]) -> dict:
        return {
            "verify_s": self.pass_s(timings),
            "weyl_evals_per_s": timings.call_count("weyl_m:") / timings.calls_s("weyl_m:"),
            "eig_search_s": self.criterion_s(timings, 6),
            "cli_call_s": min(probes),
        }


class SpectrumWorkload(Workload):
    """M(z) on a seeded grid for 8 models, planted-root eigenvalue
    searches and the near-spectrum fault probe; the probe is
    `singext weyl --kind PointInteractionRd --d 3`.  A round times each
    grid evaluation and the fault probe, and records each search's
    weyl_m calls."""

    name = "spectrum"
    PROBE = ("weyl-point-d3", ["weyl", "--kind", "PointInteractionRd", "--d", "3", "--z=-1,0"],
             check_weyl_point3)
    grid_passes = GRID_PASSES

    def prepare(self):
        self.models = build_models(self.name, self.seed)
        rng = np.random.default_rng([self.seed, 1])
        gram = seeded_gram(self.seed)
        refs = {
            "point_d1": lambda z: np.array([[reference.point_m(1, z)]]),
            "point_d3": lambda z: np.array([[reference.point_m(3, z)]]),
            "padic_2_1.5": lambda z: np.array([[reference.padic_m(2, 1.5, z)]]),
            "scaling_n1": lambda z: reference.scaling_m(np.eye(1) / reference.SCALING_H_NORM_3_2, z),
            "scaling_n2": lambda z: reference.scaling_m(np.eye(2) / reference.SCALING_H_NORM_3_2, z),
            "scaling_n3": lambda z: reference.scaling_m(gram, z),
        }
        # Per model: (z, reference M(z) or None, points to evaluate).  The
        # seed jitters fixed anchors: QUADPACK's cost depends strongly on
        # z, so free draws would make the work per round depend on the seed.
        self.grid = {}
        for name, (spec, _) in self.models.items():
            zs = [complex(re + rng.uniform(-0.1, 0.1), im * rng.uniform(0.95, 1.05))
                  for re, im in NONREAL_ANCHORS]
            zs += [complex(x * rng.uniform(0.95, 1.05), 0.0) for x in NEGATIVE_ANCHORS]
            self.grid[name] = []
            for z in zs:
                points = [z] + ([z.conjugate()] if z.imag else [])
                points += [spec.family.p[t] * z for t in spec.family.sample_points]
                self.grid[name].append((z, refs[name](z) if name in refs else None, points))
        self.grid_evals = sum(len(points) for block in self.grid.values() for *_, points in block)
        self.searches = self._planted(rng)
        self.search_calls = None

    def _m(self, name, x):
        spec, r = self.models[name]
        return np.asarray(weyl.weyl_m(spec.spectral, r, x).matrix).real

    def _planted(self, rng):
        """(label, model, B, expected roots, known fault).  B = M(x0) puts an
        eigenvalue at x0; M is increasing and pole-free on the interval,
        so no other root exists there."""
        x = lambda lo, hi: float(rng.uniform(lo, hi))
        out = []
        for name in ("point_d1", "point_d3", "padic_2_1.5", "padic_3_0.75",
                     "scaling_n1", "scaling_n3"):
            x0 = x(-2.6, -0.6)
            b = self._m(name, x0)
            out.append((f"{name} B=M(x0)", name, (b + b.T) / 2, [x0], False))
        for name in ("one_dim", "scaling_n2"):
            x0, x1 = x(-2.6, -1.7), x(-1.3, -0.5)
            b = np.diag([self._m(name, x0)[0, 0], self._m(name, x1)[1, 1]])
            out.append((f"{name} two simple roots", name, b, [x0, x1], False))
        out.append(("scaling_n1 no root (B < 0 < M)", "scaling_n1", np.array([[-1.0]]), [], False))
        out.append(("fault (a): scaling_n2 double root at -1", "scaling_n2",
                    0.5 * np.eye(2), [-1.0], True))
        return out

    def _grid_pass(self, units: dict) -> dict:
        """Every grid evaluation once, each timed as its own unit (the
        fastest over the round's passes is kept)."""
        values = {}
        for name, block in self.grid.items():
            spec, r = self.models[name]
            values[name] = []
            for k, (_, _, points) in enumerate(block):
                mats = []
                for i, z in enumerate(points):
                    start = clock()
                    mats.append(weyl.weyl_m(spec.spectral, r, z).matrix)
                    elapsed = clock() - start
                    key = f"grid:{name}:{k}:{i}"
                    units[key] = min(units.get(key, elapsed), elapsed)
                values[name].append(mats)
        return values

    def _search(self, k: int, units: dict) -> list:
        """Search k, recording its weyl_m calls (through the weyl module's
        binding, which find_negative_eigenvalues calls) as "search:<k>"
        and the rest of its wall time into "search-rest"."""
        _, name, b, _, _ = self.searches[k]
        spec, r = self.models[name]
        times, saved = [], weyl.weyl_m
        weyl.weyl_m = recording(saved, times)
        start = clock()
        try:
            roots = weyl.find_negative_eigenvalues(spec.spectral, r, b, SEARCH_INTERVAL)
        finally:
            elapsed = clock() - start
            weyl.weyl_m = saved
        units[f"search:{k}"] = times
        units["search-rest"] = units.get("search-rest", 0.0) + elapsed - sum(times)
        return roots

    def round(self, tally: Tally, inprocess: bool) -> dict:
        units: dict = {}
        # The grid passes alternate with the searches, so that each grid
        # evaluation is timed at grid_passes moments spread over the round.
        passes, found = [], []
        per_pass = -(-len(self.searches) // self.grid_passes)
        for j in range(self.grid_passes):
            passes.append(self._grid_pass(units))
            for k in range(j * per_pass, min((j + 1) * per_pass, len(self.searches))):
                found.append(self._search(k, units))
        self.search_calls = self.search_calls or [len(units[f"search:{k}"])
                                                  for k in range(len(self.searches))]
        start = clock()
        near = self._near_spectrum()
        units["near"] = clock() - start

        for name, block in self.grid.items():
            for k, (z, ref, _) in enumerate(block):
                mats = passes[0][name][k]
                same = all(np.array_equal(a, b) for p in passes[1:]
                           for a, b in zip(mats, p[name][k]))
                tally.record(same and self._grid_ok(name, z, ref, mats), f"M(z) {name} z={z}")
        for k, ((label, _, _, expect, fault), roots) in enumerate(zip(self.searches, found)):
            # The roots, found with as many weyl_m calls as in the first round.
            ok = (len(roots) == len(expect) and len(units[f"search:{k}"]) == self.search_calls[k]
                  and all(abs(a - b) <= ROOT_TOL for a, b in zip(sorted(roots), sorted(expect))))
            tally.record(ok, f"search {label}", known_fault=fault)
        tally.record(near, "fault (b): weyl_m next to the spectrum", known_fault=True)
        return units

    def _near_spectrum(self) -> bool:
        """Orthonormal scaling 3/2 at z = 1 + 1e-12 i and z = -1e-14.  A
        refusal (ConvergenceError, PoleError) is not the value either."""
        spec, r = self.models["scaling_n1"]
        ok = True
        for z in (complex(1.0, 1e-12), complex(-1e-14, 0.0)):
            try:
                got = weyl.weyl_m(spec.spectral, r, z).matrix
            except ArithmeticError:
                return False
            want = reference.scaling_m(np.eye(1) / reference.SCALING_H_NORM_3_2, z)
            ok &= float(np.linalg.norm(got - want)) <= 1e-6 * float(np.linalg.norm(want))
        return ok

    def _grid_ok(self, name, z, ref, mats) -> bool:
        """Conjugate symmetry and Herglotz positivity (Hermitian M on the
        negative axis), homogeneity at every family sample, and the
        reference value where there is one."""
        if not all(np.all(np.isfinite(x)) for x in mats):
            return False
        m = np.asarray(mats[0])
        scale = _scale(m)
        ok = True
        if z.imag:
            ok &= float(np.linalg.norm(mats[1] - m.conj().T)) <= PROPERTY_TOL * scale
            ok &= float(np.linalg.eigvalsh((m - m.conj().T) / 2j).min()) >= -PROPERTY_TOL * scale
        else:
            ok &= float(np.linalg.norm(m - m.conj().T)) <= PROPERTY_TOL * scale
        fam = self.models[name][0].family
        for t, m_pz in zip(fam.sample_points, mats[-len(fam.sample_points):]):
            xi = fam.xi_diag(t)
            resid = float(np.linalg.norm(fam.p[t] * m - xi @ m_pz @ xi))
            ok &= resid <= HOMOGENEITY_TOL * max(float(np.linalg.norm(m)), 1e-300)
        if ref is not None:
            ok &= float(np.linalg.norm(m - ref)) <= REF_TOL * float(np.linalg.norm(ref))
        return bool(ok)

    @staticmethod
    def searches_s(timings: Timings) -> float:
        return timings.calls_s("search:") + timings.fastest["search-rest"]

    @classmethod
    def pass_s(cls, timings: Timings) -> float:
        """One grid pass, the searches and the fault (b) probe."""
        return timings.fastest_s("grid:") + cls.searches_s(timings) + timings.fastest["near"]

    def end_to_end(self, timings: Timings, probes: list[float]) -> dict:
        return {
            "verify_s": self.pass_s(timings),
            "weyl_evals_per_s": self.grid_evals / timings.fastest_s("grid:"),
            "eig_search_s": self.searches_s(timings) / len(self.searches),
            "cli_call_s": min(probes),
        }


class ReadmeCalls(Workload):
    """The README command examples but `verify`, one call each per round,
    in a seeded order, run in process through cli.run.  The traced run
    reads the cli layer's figures from one such round."""

    name = "cli"

    def prepare(self):
        order = np.random.default_rng([self.seed, 2]).permutation(len(README_CALLS))
        self.calls = [README_CALLS[k] for k in order]

    def round(self, tally: Tally, inprocess: bool) -> dict:
        return {label: self.checked_call(tally, label, argv, check, inprocess)
                for label, argv, check in self.calls}


WORKLOADS = {w.name: w for w in (VerifyWorkload, SpectrumWorkload)}
# What the traced run's reference phase runs: every workload, and the README calls.
REFERENCE = WORKLOADS | {ReadmeCalls.name: ReadmeCalls}
