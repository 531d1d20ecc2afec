"""Pass loop, correctness bookkeeping and metrics of one workload run.

A run sets its workload up SETUP_REPEATS times (setup_s takes the median),
then runs whole passes over the op list until the next pass would end past
--seconds, with at least two passes so every op is repeated and its outputs
can be compared byte for byte.  With tracing on, passes alternate untraced
and traced: the untraced ones give the end-to-end figures, the traced ones
the per-layer figures (as per-pass means) and their ratio the overhead.

The shared host this runs on changes speed by 30% or more within seconds,
in every process alike, so raw seconds of the same code spread past any
useful bound between runs.  The benchmark therefore runs a fixed
calibration kernel (no gpelab code) in a short burst after every op, and
divides each op's seconds by the kernel's mean time in the bursts just
before and just after it.  The kernel is chosen per workload
(workloads.CALIBRATION) from parts that do the kinds of work its ops do:
a scalar RK4 loop in the interpreter, like the shooting integrator; a
tight scalar loop; tridiagonal solves, like a Crank-Nicolson step.  The
host's slowdowns hit these unequally.
The bounded end-to-end timings are in these calibrated units ("cal", one
kernel run); the raw seconds are reported beside them.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from tracer import LAYERS, Instrumentation, Tracer

SETUP_REPEATS = 3
MIN_PASSES = 2
# A calibration burst after an op lasts this share of the op's time (at
# least one kernel run), so bursts sample the host's speed evenly in time.
CAL_SHARE = 0.2
CAL_RK4_RUNS = 6
CAL_LOOP = 120_000
CAL_SOLVES = 80
_CAL_BANDS = np.vstack([np.full(4000, -1.0), np.full(4000, 4.0),
                        np.full(4000, -1.0)])
_CAL_RHS = np.cos(np.linspace(0.0, 30.0, 4000))


def _rk4_part() -> float:
    """Scalar RK4 of a radial ODE through a closure, stored node by node
    into an array: the shape of the shooting integrator's loop."""
    n, h, b = 1500, 2e-3, 0.5

    def f(r, u, w):
        return w, -2.0 / r * w + (1.0 + r * r) * u - r ** (-b) * abs(u) * u

    total = 0.0
    for _ in range(CAL_RK4_RUNS):
        us = np.empty(n)
        u, w = 0.1, 0.0
        for k in range(n - 1):
            r = 0.5 * h + k * h
            k1u, k1w = f(r, u, w)
            k2u, k2w = f(r + 0.5 * h, u + 0.5 * h * k1u, w + 0.5 * h * k1w)
            k3u, k3w = f(r + 0.5 * h, u + 0.5 * h * k2u, w + 0.5 * h * k2w)
            k4u, k4w = f(r + h, u + h * k3u, w + h * k3w)
            u = u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            w = w + h / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            us[k + 1] = u
        total += us[-1]
    return float(total)


def _loop_part() -> float:
    """A tight scalar loop in the interpreter, without calls."""
    x, s = 1.0, 0.0
    for i in range(CAL_LOOP):
        x = x * 1.0000001 + 0.5
        s += x if i & 1 else -x
    return s


def _solves_part() -> float:
    """Tridiagonal solves of size 4000, like a Crank-Nicolson step."""
    y = _CAL_RHS
    for _ in range(CAL_SOLVES):
        y = solve_banded((1, 1), _CAL_BANDS, _CAL_RHS + 1e-3 * y)
    return float(np.exp(-y * y).sum())


CAL_PARTS = {"rk4": _rk4_part, "loop": _loop_part, "solves": _solves_part}


def calibration_kernel(parts=("rk4",)) -> float:
    """One run of the calibration kernel: each named part once.  No gpelab
    code runs; returns a value so nothing is skipped."""
    return sum(CAL_PARTS[name]() for name in parts)


def calibration_burst(min_seconds: float, parts=("rk4",)) -> float:
    """Run the kernel at least once and until min_seconds have passed;
    return its mean time per run."""
    runs = 0
    t0 = time.perf_counter()
    while True:
        calibration_kernel(parts)
        runs += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return elapsed / runs


@dataclass
class OpRecord:
    name: str
    kind: str
    pass_index: int
    traced: bool
    seconds: float
    cal: float                   # seconds in calibrated units
    outcome: str                 # ok | failed | known_defect
    reason: str = ""
    checks: list = field(default_factory=list)
    units: int = 0


def _run_op(op, work, tracer, instrumentation):
    """Time op.run; returns (result, error text, seconds)."""
    t0 = time.perf_counter()
    result, error = None, None
    if tracer is not None:
        instrumentation.install()
    try:
        with (tracer.span(f"bench.{op.kind}", "bench") if tracer is not None
              else nullcontext()):
            result = op.run(work)
    except Exception as exc:   # an op failure is a result; keep its reason
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            instrumentation.uninstall()
    return result, error, time.perf_counter() - t0


def _judge(op, result, error, digests):
    """Run the op's checks; returns (outcome, reason, checks, units)."""
    checks = []
    if error is None:
        try:
            checks = list(op.verify(result))
            digest = op.digest(result)
        except Exception:
            error = "check raised: " + traceback.format_exc(limit=3)
        else:
            key = op.name.split("#")[0]
            if key in digests:
                ok = digest == digests[key]
                checks.append(("determinism", ok,
                               f"sha256 {digest[:12]} vs {digests[key][:12]}"))
            else:
                digests[key] = digest
    failed = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    reason = error or "; ".join(failed)
    if not reason:
        return "ok", "", checks, op.units(result)
    if op.known_defect:
        return "known_defect", f"{reason} [{op.known_defect}]", checks, 0
    return "failed", reason, checks, 0


def run_workload(build, seed, seconds, trace, smoke, work, cal_parts):
    """Set up, run the passes and return (records, timing dict, tracer).
    cal_parts names the parts of the workload's calibration kernel."""
    setup_times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        setup_dir = work / f"setup{i}"
        setup_dir.mkdir()
        ops = build(seed, smoke, setup_dir)
        setup_times.append(time.perf_counter() - t0)

    tracer = Tracer() if trace else None
    instrumentation = Instrumentation(tracer) if trace else None
    records, pass_walls, pass_cals, digests = [], [], [], {}
    cal_times = []
    calibration_burst(0.2, cal_parts)       # warm-up, not counted
    cal_before = calibration_burst(0.0, cal_parts)
    start = time.perf_counter()
    while len(pass_walls) < MIN_PASSES or (
            time.perf_counter() - start) * (1 + 1 / len(pass_walls)) <= seconds:
        index = len(pass_walls)
        traced = trace and index % 2 == 1
        wall = wall_cal = 0.0
        for k, op in enumerate(ops):
            op_dir = work / f"pass{index}" / f"op{k}"
            op_dir.mkdir(parents=True)
            result, error, secs = _run_op(op, op_dir, tracer if traced else None,
                                          instrumentation)
            cal_after = calibration_burst(CAL_SHARE * secs, cal_parts)
            cal = secs / (0.5 * (cal_before + cal_after))
            cal_before = cal_after
            cal_times.append(cal_after)
            wall += secs
            wall_cal += cal
            outcome, reason, checks, units = _judge(op, result, error, digests)
            records.append(OpRecord(op.name, op.kind, index, traced, secs, cal,
                                    outcome, reason, checks, units))
        pass_walls.append((traced, wall))
        pass_cals.append((traced, wall_cal))
    timing = {"setup_times": setup_times, "pass_walls": pass_walls,
              "pass_cals": pass_cals, "cal_times": cal_times,
              "measured_s": time.perf_counter() - start}
    return records, timing, tracer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(records, timing, import_times):
    """End-to-end metrics from the untraced passes.

    wall, op_p50 and work_per come twice: in calibrated units (_cal, the
    ones BENCHMARK.json bounds) and in raw seconds (_s).  wall_cal adds up
    each op's median over the passes, and op_p50 is the median of those
    per-op medians; wall_s is the median pass.
    setup_s is the median import time plus the median set-up time.
    """
    plain = [r for r in records if not r.traced]
    walls = [w for traced, w in timing["pass_walls"] if not traced]
    per_op = {}
    for r in plain:
        per_op.setdefault(r.name, []).append((r.cal, r.seconds))
    op_cal = [statistics.median(c for c, _ in v) for v in per_op.values()]
    op_s = [statistics.median(s for _, s in v) for v in per_op.values()]
    units = sum(r.units for r in plain)
    attempted = len(records)
    failing = sum(r.outcome != "ok" for r in records)
    return {
        "setup_s": (statistics.median(import_times)
                    + statistics.median(timing["setup_times"]), "s"),
        "wall_cal": (sum(op_cal), "cal"),
        "op_p50_cal": (statistics.median(op_cal), "cal"),
        "work_per_kcal": (1000.0 * units / sum(r.cal for r in plain),
                          "1/kcal"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(op_s), "s"),
        "work_per_s": (units / sum(walls), "1/s"),
        "cal_s": (statistics.median(timing["cal_times"]), "s"),
        "fail_ratio": (failing / attempted, "1"),
    }


def _bucket(exc_type):
    from gpelab.core import ParameterError
    from gpelab.groundstate import ConvergenceError
    if issubclass(exc_type, ConvergenceError):
        return "ConvergenceError"
    if issubclass(exc_type, ParameterError):
        return "ParameterError"
    return "other"


def per_layer(records, timing, tracer):
    """Per-layer metrics from the traced passes, as means per traced pass.

    Each busy and self time is given twice: in seconds (name ending _s)
    and as a share of the traced op time (name ending _pct).  The shares
    cancel most of the machine's speed drift between runs, and stay
    meaningful on a workload that never calls the layer.
    """
    traced_walls = [w for traced, w in timing["pass_walls"] if traced]
    n = len(traced_walls)
    traced_total = sum(traced_walls)
    calls, busy, counts = tracer.calls, tracer.busy, tracer.counts
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def seconds(name, total):
        put(f"{name}_s", total / n, "s")
        put(f"{name}_pct", 100.0 * total / traced_total, "%")

    def group(prefix, with_calls=True):
        if with_calls:
            put(f"{prefix}.calls", calls[prefix] / n, "count")
        seconds(f"{prefix}.busy", busy[prefix])

    group("groundstate.solve")
    group("groundstate.minimizer")
    put("groundstate.iterations", counts["groundstate.iterations"] / n, "count")
    fails = Counter()
    for (grp, exc_type), k in tracer.errors.items():
        if grp.startswith("groundstate."):
            fails[_bucket(exc_type)] += k
    for bucket in ("ConvergenceError", "ParameterError", "other"):
        put(f"groundstate.fail.{bucket}", fails[bucket] / n, "count")
    put("groundstate.trivial", counts["groundstate.trivial"] / n, "count")
    put("groundstate.residual_sup_max",
        tracer.maxima["groundstate.residual_sup_max"], "1")
    group("groundstate.io")
    put("groundstate.io.bytes", counts["groundstate.io.bytes"] / n, "B")

    group("evolve")
    steps = counts["evolve.steps"]
    put("evolve.steps", steps / n, "count")
    put("evolve.steps_per_busy_s", steps / busy["evolve"] if steps else 0.0,
        "1/s")
    put("evolve.records", counts["evolve.records"] / n, "count")
    group("evolve.predict", with_calls=False)
    group("evolve.csv", with_calls=False)
    put("evolve.mass_drift_max", tracer.maxima["evolve.mass_drift_max"], "1")

    group("experiments.d_omega", with_calls=False)
    put("experiments.trials", counts["experiments.trials"] / n, "count")
    put("experiments.nehari_project.calls",
        calls["experiments.nehari_project"] / n, "count")
    tried = calls["experiments.cross_points"]
    built = counts["experiments.cross_points.built"]
    put("experiments.cross_points.tried", tried / n, "count")
    put("experiments.cross_points.built", built / n, "count")
    put("experiments.cross_points.useful_ratio", built / tried if tried else 0.0,
        "1")
    group("experiments.dichotomy", with_calls=False)
    group("experiments.sweep_rows", with_calls=False)

    group("closedforms.interp_build")
    group("closedforms.interp_eval")
    put("closedforms.interp_eval.points",
        counts["closedforms.interp_eval.points"] / n, "count")

    group("functionals")
    put("functionals.classify.calls", calls["functionals.classify"] / n, "count")

    group("core.field_new")
    group("core.norms")
    group("core.operator")

    put("cli.run.calls", calls["cli.run"] / n, "count")
    put("cli.bytes_written", counts["cli.bytes_written"] / n, "B")

    for layer in LAYERS + ("bench",):
        seconds(f"{layer}.self", tracer.self_time[layer])
    put("trace.accounted_ratio",
        sum(tracer.self_time[layer] for layer in LAYERS) / traced_total, "1")
    traced_cals = [c for traced, c in timing["pass_cals"] if traced]
    plain_cals = [c for traced, c in timing["pass_cals"] if not traced]
    put("trace.overhead_ratio",
        statistics.median(traced_cals) / statistics.median(plain_cals), "1")
    put("trace.spans", len(tracer.spans) / n, "count")
    put("trace.wall_s", statistics.median(traced_walls), "s")
    put("fail_ratio", sum(r.outcome != "ok" for r in records) / len(records),
        "1")
    return m
