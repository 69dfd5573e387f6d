"""Spans around calls into singext's public functions, kept in memory.

The tracer replaces each traced function at every module-level binding
inside the loaded ``singext`` modules (the package re-exports names, and
modules import each other's functions by name), and the entries of
``acceptance.CRITERIA``.  ``uninstall`` puts the originals back.  Closures
already built by a model builder keep whatever function they captured,
so models used in a traced phase are built after ``install``.

A span is ``(label, start, end, parent_index, phase)``; the self time of
a span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import sys
import time


def _resolvent_label(z) -> str:
    z = complex(z)
    negative = z.imag == 0.0 and z.real < 0.0
    return "models.resolvent.quadrature_negative" if negative else "models.resolvent.quadrature"


def _cli_label(argv) -> str:
    if argv[0] == "model":
        return f"cli.run.model-{argv[1]}"
    return f"cli.run.{argv[0]}"


# (module, attribute, label or args -> label)
TARGETS = [
    ("quadrature", "integrate_half_line", "quadrature.half_line"),
    ("quadrature", "integrate_half_line_complex", "quadrature.half_line_complex"),
    ("quadrature", "integrate_real_line", "quadrature.real_line"),
    ("models", "build_one_dim_model", "models.build.one_dim"),
    ("models", "build_point_interaction", "models.build.point"),
    ("models", "build_padic_model", "models.build.padic"),
    ("models", "build_scaling_invariant_3d", "models.build.scaling"),
    ("models", "_one_dim_resolvent", "models.resolvent.closed"),
    ("models", "point_interaction_resolvent", lambda a: _resolvent_label(a[1])),
    ("models", "e_alpha", lambda a: _resolvent_label(a[1])),
    ("models", "padic_resolvent", "models.resolvent.series"),
    ("admissibility", "solve_homogeneous_R", "admissibility.solve"),
    ("weyl", "weyl_m", "weyl.weyl_m"),
    ("weyl", "find_negative_eigenvalues", "weyl.search"),
    ("spectra_scattering", "s_matrix", "spectra_scattering.s_matrix"),
    ("spectra_scattering", "is_nonnegative_realization", "spectra_scattering.nonneg"),
    ("cli", "run", lambda a: _cli_label(a[0])),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, label, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            name = label(args) if callable(label) else label
            parent, phase = stack[-1] if stack else -1, self.phase
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                # A tuple of atomic values leaves the garbage collector's
                # tracked set, so a long trace does not slow collections.
                spans[index] = (name, start, clock(), parent, phase)
                stack.pop()

        return traced

    def install(self) -> None:
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "singext" or name.startswith("singext."))]
        for module_name, attr, label in TARGETS:
            original = getattr(sys.modules[f"singext.{module_name}"], attr)
            wrapper = self.wrap(label, original)
            for module in loaded:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._restore.append((module, name, original))
        criteria = sys.modules["singext.acceptance"].CRITERIA
        for number, fn in list(criteria.items()):
            criteria[number] = self.wrap(f"acceptance.criterion_{number}", fn)
            self._restore.append((criteria, number, fn))

    @contextlib.contextmanager
    def installed(self, phase: str):
        """Trace calls made inside the block, tagged with `phase`."""
        self.phase = phase
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._restore.clear()


def summarize(spans: list[tuple]) -> dict[tuple[str, str], dict[str, float]]:
    """Per (phase, label): count, total and self seconds, and the number
    of these spans whose parent is a ``weyl.search`` span."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[tuple[str, str], dict[str, float]] = {}
    for index, (label, start, end, parent, phase) in enumerate(spans):
        entry = out.setdefault((phase, label), {"count": 0, "total": 0.0, "self": 0.0,
                                                "in_search": 0})
        entry["count"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[index]
        if parent >= 0 and spans[parent][0] == "weyl.search":
            entry["in_search"] += 1
    return out


RESOLVENT_KINDS = ("quadrature", "quadrature_negative", "series", "closed")
BUILD_KINDS = ("one_dim", "point", "padic", "scaling")


def layer_metrics(spans: list[tuple], rounds: int, cli_labels) -> dict[str, float]:
    """Per-layer figures from the spans of the traced rounds (counts per
    round).  A layer with no span in those rounds is read from the
    reference phase (one round of each other workload) instead; build
    times also take the traced set-up into account."""
    summary = summarize(spans)

    empty = {"count": 0, "total": 0.0, "self": 0.0, "in_search": 0}

    def source(labels, phases):
        """(entry merged over labels, passes, phases read) from the first
        phase group that holds a span of any of the labels."""
        for group, passes in ((phases, rounds), (("reference",), 1)):
            found = [summary[(p, l)] for p in group for l in labels if (p, l) in summary]
            if found:
                return {k: sum(e[k] for e in found) for k in empty}, passes, group
        return dict(empty), 1, ()

    def mean(labels, field="total", scale=1e6, phases=("rounds",)):
        entry = source(labels, phases)[0]
        return scale * entry[field] / entry["count"] if entry["count"] else 0.0

    def per_pass(labels):
        entry, passes, _ = source(labels, ("rounds",))
        return entry["count"] / passes

    search, _, group = source(["weyl.search"], ("rounds",))
    in_search = sum(summary.get((p, "weyl.weyl_m"), empty)["in_search"] for p in group)
    out = {
        "quadrature.calls": per_pass(["quadrature.half_line"]),
        "quadrature.us": mean(["quadrature.half_line"]),
        "models.resolvent_calls": per_pass([f"models.resolvent.{k}" for k in RESOLVENT_KINDS]),
        "admissibility.solve_us": mean(["admissibility.solve"]),
        "admissibility.solve_calls": per_pass(["admissibility.solve"]),
        "weyl.weyl_m_us": mean(["weyl.weyl_m"]),
        "weyl.weyl_m_self_us": mean(["weyl.weyl_m"], field="self"),
        "weyl.weyl_m_calls": per_pass(["weyl.weyl_m"]),
        "weyl.search_weyl_calls": in_search / search["count"] if search["count"] else 0.0,
        "spectra_scattering.s_matrix_us": mean(["spectra_scattering.s_matrix"]),
        "spectra_scattering.s_matrix_calls": per_pass(["spectra_scattering.s_matrix"]),
        "spectra_scattering.nonneg_us": mean(["spectra_scattering.nonneg"]),
        "spectra_scattering.nonneg_calls": per_pass(["spectra_scattering.nonneg"]),
    }
    for kind in RESOLVENT_KINDS:
        out[f"models.resolvent_us.{kind}"] = mean([f"models.resolvent.{kind}"])
    for kind in BUILD_KINDS:
        out[f"models.build_ms.{kind}"] = mean([f"models.build.{kind}"], scale=1e3,
                                              phases=("setup", "rounds"))
    for number in range(1, 10):
        out[f"acceptance.criterion_{number}_s"] = mean([f"acceptance.criterion_{number}"],
                                                       scale=1.0)
    for label in cli_labels:
        out[f"cli.run_ms.{label}"] = mean([f"cli.run.{label}"], scale=1e3)
    return out
