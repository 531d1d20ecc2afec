"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench

Runs each workload in its short (--smoke) mode with tracing off and on,
and checks that the result line carries exactly the metrics BENCHMARK.json
names, with their units; that every registered correctness check ran on
some workload and rejects a wrong output; and that the benchmark refuses to
run without the package sources.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks as ck  # noqa: E402
import harness  # noqa: E402
from gpelab.core import RadialField, RadialGrid  # noqa: E402
from gpelab.evolve import EvolveConfig, evolve  # noqa: E402
from gpelab.experiments import DichotomyResult, SweepRow  # noqa: E402
from gpelab.functionals import SetLabel  # noqa: E402
from tracer import Tracer, steps_taken  # noqa: E402
from workloads import params  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=300)


@pytest.fixture(scope="module")
def smoke_runs():
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _bench("--workload", workload, "--seed", "3", "--seconds",
                          "1", "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr
            runs[workload, trace] = proc.stdout.strip().splitlines()
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_carries_every_named_metric(smoke_runs, workload, trace):
    result = json.loads(smoke_runs[workload, trace][-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
    if trace:
        # layer self times account for the traced op time
        assert result["metrics"]["trace.accounted_ratio"]["value"] > 0.9
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_human_lines_name_every_end_to_end_metric(smoke_runs, workload):
    lines = smoke_runs[workload, 0]
    for name in ("setup_s", "wall_cal", "op_p50_cal", "work_per_kcal",
                 "peak_rss_mb", "wall_s", "op_p50_s", "work_per_s", "cal_s",
                 "fail_ratio"):
        assert any(line.startswith(f"e2e {name} = ") for line in lines), name
    assert any(line.startswith("facts ") for line in lines)


def test_every_check_is_wired_into_a_workload(smoke_runs):
    ran = set()
    for lines in smoke_runs.values():
        line = next(x for x in lines if x.startswith("ops "))
        ran |= set(line.split("checks run: ")[1].split(", "))
    assert ran == set(ck.CHECKS)


def test_stationary_reports_known_defects_with_reasons(smoke_runs):
    lines = smoke_runs["stationary", 0]
    defects = [x for x in lines if x.startswith("known_defect ")]
    assert any("nontrivial" in x for x in defects)
    assert any("ConvergenceError" in x for x in defects)
    fail_ratio = next(x for x in lines if x.startswith("e2e fail_ratio"))
    assert float(fail_ratio.split()[3]) > 0


def _grid():
    return RadialGrid(h=0.05, rmax=4.0, dim=3)


WRONG = {
    "residual": lambda: (RadialField(_grid(), np.exp(-_grid().r ** 2)),
                         _grid().r ** 2, params(2.0), 1e-8),
    "nontrivial": lambda: (np.full(8, 1e-20),),
    "positive": lambda: (np.array([2.0, 1.0, -1e-3]),),
    "monotone": lambda: (np.array([1.0, 1.5, 0.5]),),
    "mass_target": lambda: (1.01, 1.0),
    "multiplier_floor": lambda: (-3.5, -3.0),
    "cli_outputs": lambda: (1, True, {"converged": True, "residual_sup": 0.0},
                            1e-8),
    "mass_drift_bound": lambda: (SimpleNamespace(mass=np.array([1.0, 1.0 + 1e-6])),),
    "energy_drift_bound": lambda: (SimpleNamespace(energy=np.array([1.0, 1.1])),),
    "sweep_side": lambda: (SweepRow(0.9, 1.65, "blowup", 0.5, None, 1e3),),
    "dichotomy": lambda: (DichotomyResult(SetLabel.R_PLUS, [], None, None, 1.0,
                                          False, "label changed"),
                          SetLabel.R_PLUS),
    "record_cadence": lambda: _cadence_pair(),
    "d_omega_reference": lambda: (10.2, 10.0),
    "d_omega_random": lambda: (9.99, 10.0),
    "cross_points": lambda: (1.0, []),
    "determinism": lambda: ("a" * 64, "b" * 64),
}


def _cadence_pair():
    grid = _grid()
    u0 = RadialField(grid, 0.3 * np.exp(-grid.r ** 2))
    prm = params(2.0)
    dense = evolve(u0, prm, EvolveConfig(dt=1e-3, t_end=0.01, record_every=1))
    other = evolve(u0 * 1.01, prm, EvolveConfig(dt=1e-3, t_end=0.01,
                                                record_every=5))
    return dense, other, 5


@pytest.mark.parametrize("name", sorted(ck.CHECKS))
def test_every_check_rejects_a_wrong_output(name):
    ok, detail = getattr(ck, name)(*WRONG[name]())
    assert not ok, detail


def test_record_cadence_accepts_the_same_run_sampled_sparsely():
    grid = _grid()
    u0 = RadialField(grid, 0.3 * np.exp(-grid.r ** 2))
    prm = params(2.0)
    dense = evolve(u0, prm, EvolveConfig(dt=1e-3, t_end=0.01, record_every=1))
    sparse = evolve(u0, prm, EvolveConfig(dt=1e-3, t_end=0.01, record_every=5))
    assert ck.record_cadence(dense, sparse, 5)[0]


def test_steps_taken_matches_recorded_rows():
    grid = _grid()
    u0 = RadialField(grid, 0.3 * np.exp(-grid.r ** 2))
    cfg = EvolveConfig(dt=1e-3, t_end=0.0105, record_every=1,
                       snapshot_times=(0.0042,))
    res = evolve(u0, params(2.0), cfg)
    assert steps_taken(cfg, res.final_time) == len(res.series.t) - 1


def test_calibration_burst_lasts_its_share_and_returns_time_per_run():
    for part in harness.CAL_PARTS:
        assert (harness.calibration_kernel((part,))
                == harness.calibration_kernel((part,)))
    t0 = time.perf_counter()
    per_run = harness.calibration_burst(0.05)
    elapsed = time.perf_counter() - t0
    assert elapsed >= 0.05
    assert 0.0 < per_run <= elapsed


def test_self_times_account_for_root_span():
    tr = Tracer()
    with tr.span("bench.op", "bench"):
        time.sleep(0.01)
        with tr.span("core.mass", "core.norms"):
            time.sleep(0.01)
            with tr.span("core.mass", "core.norms"):
                time.sleep(0.01)
    root = next(s for s in tr.spans if s[1] is None)
    assert sum(tr.self_time.values()) == pytest.approx(root[4] - root[3])
    assert tr.calls["core.norms"] == 2
    # busy counts the outermost span of a group once
    outer = [s for s in tr.spans if s[2] == "core.mass" and s[1] == root[0]][0]
    assert tr.busy["core.norms"] == pytest.approx(outer[4] - outer[3])


def test_refuses_to_run_without_package_sources():
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                      "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
