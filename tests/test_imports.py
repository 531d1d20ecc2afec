"""gpelab runs on numpy and scipy.linalg alone: importing it, the CLI, a
groundstate run, a config error, a spline, the cross points and a levels
run never load scipy.interpolate or scipy.optimize."""

import json
import os
import subprocess
import sys
from pathlib import Path

import gpelab

UNUSED = ("scipy.interpolate", "scipy.optimize")

# run in one fresh interpreter; after each step it prints the step's name
# and the modules of UNUSED that are loaded by then
_SCRIPT = """
import json, sys
from pathlib import Path

import numpy as np

tmp = Path(sys.argv[1])

def seen(step):
    print(json.dumps([step, [m for m in {unused!r} if m in sys.modules]]))

import gpelab
seen("import gpelab")
from gpelab import cli
seen("import gpelab.cli")
(tmp / "default.ini").write_text("")
assert cli.run("groundstate", tmp / "default.ini", tmp / "gs") == 0
seen("groundstate")
(tmp / "supercritical.ini").write_text("[model]\\np = 2.5\\n")
assert cli.run("lens", tmp / "supercritical.ini", tmp / "lens") == 2
seen("config error")
grid = gpelab.RadialGrid(h=0.1, rmax=2.0, dim=3)
gpelab.ProfileInterpolant(gpelab.RadialField(grid, np.exp(-grid.r ** 2)))
seen("ProfileInterpolant")
params = gpelab.ModelParams(dim=3, b=0.5, p=2.0, gamma=1.0, omega=0.0)
grid = gpelab.RadialGrid(h=1e-2, rmax=8.0, dim=3)
phi = gpelab.solve_bound_state(params, grid).profile
assert len(gpelab.experiments.estimate_d_n_upper(phi, params)[1]) > 0
seen("estimate_d_n_upper")
(tmp / "levels.ini").write_text("[grid]\\nh = 1e-2\\n[levels]\\nn_random = 2\\n")
assert cli.run("levels", tmp / "levels.ini", tmp / "levels") == 0
seen("levels")
""".format(unused=UNUSED)


def test_interpolate_and_optimize_never_load(tmp_path):
    src = str(Path(gpelab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(json.loads(line) for line in proc.stdout.splitlines())
    assert loaded == {step: [] for step in (
        "import gpelab", "import gpelab.cli", "groundstate", "config error",
        "ProfileInterpolant", "estimate_d_n_upper", "levels")}
