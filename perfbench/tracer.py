"""Span tracer that instruments gpelab from outside the package.

Every public entry point of the seven package modules is wrapped at run
time: the function object is replaced in each module namespace that binds
it, and class methods (RadialField construction, ProfileInterpolant build
and evaluation, DiagnosticSeries.to_csv) are replaced on the class.  Each
call records a span (id, parent id, name, start, end) kept in memory.
Nothing inside src/ changes, and uninstall() restores the originals, so
traced and untraced passes can alternate in one process.

Self time of a span is its duration minus the time its child spans cover;
summed per layer, self times account for the whole traced op time (ops are
root spans of the "bench" layer, which keeps the harness's own share).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("core", "functionals", "groundstate", "evolve", "closedforms",
          "experiments", "cli")
# The stated nontriviality floor on max|u| of a stationary state; shared with
# the correctness checks.
NONTRIVIAL_FLOOR = 1e-3


class Tracer:
    """In-memory span recorder with per-group call/busy accounting.

    A group is the metric prefix of a span ("groundstate.solve"); its layer
    is the first dotted component.  busy counts only the outermost span of
    a group, so a recursive or nested call is not counted twice.
    """

    def __init__(self):
        self.spans = []
        self._next_id = 0
        self._stack = []            # [span id, group, t0, child time]
        self._depth = Counter()
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.errors = Counter()

    def enter(self, name: str, group: str):
        span_id = self._next_id
        self._next_id += 1
        self.calls[name] += 1
        if name != group:
            self.calls[group] += 1
        self._depth[group] += 1
        frame = [span_id, name, group, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame, error: BaseException | None = None) -> None:
        t1 = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError("span stack out of order")
        span_id, name, group, t0, child = frame
        dur = t1 - t0
        self._depth[group] -= 1
        if self._depth[group] == 0:
            self.busy[group] += dur
        self.self_time[group.split(".")[0]] += dur - child
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][4] += dur
        if error is not None:
            self.errors[(group, type(error))] += 1
        self.spans.append((span_id, parent, name, t0, t1))

    def span(self, name: str, group: str | None = None):
        return _Span(self, name, group or name)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, ordered by start time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1 in sorted(self.spans,
                                                        key=lambda s: s[3]):
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": t0,
                                     "end": t1}) + "\n")


class _Span:
    def __init__(self, tracer, name, group):
        self.tracer, self.name, self.group = tracer, name, group

    def __enter__(self):
        self.frame = self.tracer.enter(self.name, self.group)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer.exit(self.frame, exc)
        return False


# --------------------------------------------------------------- observers
# Observers run after a span closes and turn a call's arguments and result
# into counts at the same boundary.  They use numpy and the file system
# only, never gpelab, so they add no spans.

def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _obs_solve(tr, args, kwargs, res):
    tr.counts["groundstate.iterations"] += res.iterations
    vals = np.abs(res.profile.values)
    if float(np.max(vals)) < NONTRIVIAL_FLOOR:
        tr.counts["groundstate.trivial"] += 1
    key = "groundstate.residual_sup_max"
    tr.maxima[key] = max(tr.maxima[key], float(res.residual_sup))


def _obs_profile_io(tr, args, kwargs, res):
    tr.counts["groundstate.io.bytes"] += os.path.getsize(args[0])


def _obs_evolve(tr, args, kwargs, res):
    cfg = _arg(args, kwargs, 2, "cfg")
    tr.counts["evolve.steps"] += steps_taken(cfg, res.final_time)
    tr.counts["evolve.records"] += len(res.series.t)
    key = "evolve.mass_drift_max"
    tr.maxima[key] = max(tr.maxima[key], mass_drift(res.series))


def _obs_d_omega(tr, args, kwargs, res):
    ref = _arg(args, kwargs, 2, "reference")
    n_random = _arg(args, kwargs, 3, "n_random", 40)
    tr.counts["experiments.trials"] += n_random + (6 if ref is not None else 0)


def _obs_cross_point(tr, args, kwargs, res):
    tr.counts["experiments.cross_points.built"] += 1


def _obs_interp_eval(tr, args, kwargs, res):
    tr.counts["closedforms.interp_eval.points"] += np.size(args[1])


def _obs_cli(tr, args, kwargs, res):
    out_dir = Path(_arg(args, kwargs, 2, "out_dir"))
    tr.counts["cli.bytes_written"] += sum(
        f.stat().st_size for f in out_dir.iterdir() if f.is_file())


def mass_drift(series) -> float:
    """Largest relative deviation of the recorded mass from its first value."""
    m = np.asarray(series.mass)
    return float(np.max(np.abs(m - m[0])) / m[0])


def steps_taken(cfg, final_time: float) -> int:
    """Number of Strang/CN steps evolve() took to reach final_time.

    Mirrors evolve's segment rule: each segment between snapshot times runs
    whole steps of cfg.dt plus one shortened step that lands on its end; an
    early stop on the blow-up flag happens after a whole step.
    """
    bounds = sorted({float(ts) for ts in cfg.snapshot_times} | {cfg.t_end})
    steps, start = 0, 0.0
    for target in (t for t in bounds if t > 1e-14):
        span = target - start
        nfull = int(np.floor(span / cfg.dt + 1e-9))
        if final_time >= target - 1e-12:
            steps += nfull + (1 if span - nfull * cfg.dt > 1e-12 else 0)
            start = target
            continue
        return steps + int(round((final_time - start) / cfg.dt))
    return steps


# ------------------------------------------------------------- instrument

def _entry_points():
    """(owner, attribute, span name, group, observer) for every traced
    entry point.  The span name is layer.function; the group is the metric
    prefix of the per-layer metrics."""
    from gpelab import (cli, closedforms, core, evolve, experiments,
                        functionals, groundstate)

    table = [
        (core.RadialField, "__init__", "core.RadialField", "core.field_new",
         None),
    ]
    for name in ("mass", "variance", "grad_norm_sq", "sigma_norm_sq",
                 "sigma_inner", "integrate_radial"):
        table.append((core, name, f"core.{name}", "core.norms", None))
    for name in ("apply_laplacian", "node_derivative"):
        table.append((core, name, f"core.{name}", "core.operator", None))
    for name in ("potential", "energy", "energy_gradient", "h_omega_norm_sq",
                 "action", "nehari", "virial", "virial_coefficient",
                 "weinstein", "gn_slack", "report", "classify"):
        table.append((functionals, name, f"functionals.{name}", "functionals",
                      None))
    table += [
        (groundstate, "solve_soliton", "groundstate.solve_soliton",
         "groundstate.solve", _obs_solve),
        (groundstate, "solve_bound_state", "groundstate.solve_bound_state",
         "groundstate.solve", _obs_solve),
        (groundstate, "constrained_minimizer",
         "groundstate.constrained_minimizer", "groundstate.minimizer",
         _obs_solve),
        (groundstate, "save_profile", "groundstate.save_profile",
         "groundstate.io", _obs_profile_io),
        (groundstate, "load_profile", "groundstate.load_profile",
         "groundstate.io", _obs_profile_io),
        (groundstate, "stationary_residuals",
         "groundstate.stationary_residuals", "groundstate.other", None),
        (groundstate, "uniqueness_report", "groundstate.uniqueness_report",
         "groundstate.other", None),
        (evolve, "evolve", "evolve.evolve", "evolve", _obs_evolve),
        (evolve, "predict_collapse_time", "evolve.predict_collapse_time",
         "evolve.predict", None),
        (evolve.DiagnosticSeries, "to_csv", "evolve.DiagnosticSeries.to_csv",
         "evolve.csv", None),
        (evolve, "virial_check", "evolve.virial_check", "evolve.other", None),
        (experiments, "estimate_d_omega", "experiments.estimate_d_omega",
         "experiments.d_omega", _obs_d_omega),
        (experiments, "nehari_project", "experiments.nehari_project",
         "experiments.nehari_project", None),
        (experiments, "construct_cross_point",
         "experiments.construct_cross_point", "experiments.cross_points",
         _obs_cross_point),
        (experiments, "estimate_d_n_upper", "experiments.estimate_d_n_upper",
         "experiments.d_n_upper", None),
        (experiments, "threshold_sweep", "experiments.threshold_sweep",
         "experiments.sweep_rows", None),
        (experiments, "dichotomy_run", "experiments.dichotomy_run",
         "experiments.dichotomy", None),
    ]
    for name in ("scale_amplitude", "scale_mass_preserving", "scale_dilation",
                 "scale_potential_preserving", "random_trial_field",
                 "estimate_levels", "stability_run"):
        table.append((experiments, name, f"experiments.{name}",
                      "experiments.other", None))
    table += [
        (closedforms.ProfileInterpolant, "__init__",
         "closedforms.ProfileInterpolant", "closedforms.interp_build", None),
        (closedforms.ProfileInterpolant, "__call__",
         "closedforms.ProfileInterpolant.__call__",
         "closedforms.interp_eval", _obs_interp_eval),
    ]
    for name in ("oscillator_mode", "discrete_oscillator_mode",
                 "blowup_family", "lens_forward", "lens_inverse",
                 "snapshot_sampler", "minimal_mass_solution",
                 "minimal_mass_initial"):
        table.append((closedforms, name, f"closedforms.{name}",
                      "closedforms.other", None))
    table.append((cli, "run", "cli.run", "cli.run", _obs_cli))
    return table


def _wrap(tracer, fn, name, group, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter(name, group)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit(frame, exc)
            raise
        tracer.exit(frame)
        if observe is not None:
            observe(tracer, args, kwargs, out)
        return out
    return traced


class Instrumentation:
    """Traced wrappers for one Tracer.  The bindings to replace are found
    once; install() and uninstall() then only swap attributes, so tracing
    can be switched off around the correctness checks of each op."""

    def __init__(self, tracer: Tracer):
        import sys
        self.tracer = tracer
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "gpelab" or n.startswith("gpelab.")) and m]
        self._swaps = []
        for owner, attr, name, group, observe in _entry_points():
            original = owner.__dict__[attr]
            wrapped = _wrap(tracer, original, name, group, observe)
            if isinstance(owner, type):
                self._swaps.append((owner, attr, original, wrapped))
                continue
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._swaps.append((module, key, original, wrapped))

    def install(self) -> None:
        for owner, key, _, wrapped in self._swaps:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._swaps:
            setattr(owner, key, original)
