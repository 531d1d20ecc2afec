"""gpelab benchmark: one command, three workloads, one process per workload.

    python3 perfbench/run.py --workload stationary|dynamics|levels|all \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a gpelab checkout; the package is imported from its
src/ directory.  Human-readable lines (machine facts, op failures with their
reasons, every metric with its unit) come first; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  A full record of the run (facts, every op
with its checks, all metrics) and the span trace are written under
.perfbench_out/ in the checkout.  --smoke runs short op lists, for tests.
"""

import os
import time

_T0 = time.perf_counter()
# The machine has two cores; each workload runs single-threaded.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
NAMES = ("stationary", "dynamics", "levels")
# Imports happen once per process, so setup_s repeats them in fresh
# interpreters and takes the median with this process's own.
IMPORT_REPEATS = 2
IMPORT_PROBE = ("import sys, time\n"
                "t0 = time.perf_counter()\n"
                "sys.path[:0] = sys.argv[1:3]\n"
                "import gpelab, harness, workloads\n"
                "print(time.perf_counter() - t0)\n")


def _git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_facts():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": THREAD_ENV, "workers": 1,
            "git_commit": _git_commit()}


def import_times(first: float) -> list:
    """This process's import time and IMPORT_REPEATS more, each measured
    in a fresh interpreter that imports the same modules."""
    times = [first]
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE),
                               str(ROOT / "src")], capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(proc.stdout.split()[-1]))
    return times


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args):
    src = ROOT / "src"
    if not (src / "gpelab" / "__init__.py").is_file():
        print(f"error: gpelab sources not found under {src}", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics the result line carries
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import gpelab  # noqa: F401
    import harness
    import workloads
    imports = import_times(time.perf_counter() - _T0)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        records, timing, tracer = harness.run_workload(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            args.trace, args.smoke, work,
            workloads.CALIBRATION[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = harness.end_to_end(records, timing, imports)
    layer = harness.per_layer(records, timing, tracer) if args.trace else {}
    facts = machine_facts()
    rate = workloads.RATE_NAMES[args.workload]
    failed = [r for r in records if r.outcome == "failed"]
    known = [r for r in records if r.outcome == "known_defect"]
    checks_run = sorted({c[0] for r in records for c in r.checks})

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"ops {len(records)} in {len(timing['pass_walls'])} passes "
          f"({len(records) // len(timing['pass_walls'])} per pass), "
          f"checks run: {', '.join(checks_run)}")
    seen = {}
    for r in failed + known:
        seen.setdefault((r.outcome, r.name), []).append(r)
    for (outcome, name), rs in seen.items():
        print(f"{outcome} in {len(rs)} passes: {name}: {rs[0].reason}")
    for name, (value, unit) in e2e.items():
        alias = {"work_per_s": f"  ({rate})",
                 "work_per_kcal": f"  ({rate[:-2]}_kcal)"}.get(name, "")
        print(f"e2e {name} = {_fmt(value)} {unit}{alias}")
    for name, (value, unit) in layer.items():
        print(f"layer {name} = {_fmt(value)} {unit}")

    chosen = {k: (layer if args.trace else e2e)[k] for k in wanted}
    result = {"correct": not failed, "attempted": len(records),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in chosen.items()}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "facts": facts, "rate_metric": rate,
              "timing": timing, "checks_run": checks_run,
              "end_to_end": e2e, "per_layer": layer,
              "ops": [r.__dict__ for r in records], "result": result}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}.jsonl")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process; a combined table, then one JSON
    line mapping workload to its result."""
    combined = {}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        combined[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short op lists (for the benchmark's own test)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
