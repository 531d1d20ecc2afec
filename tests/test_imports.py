"""scipy.interpolate and scipy.optimize load on first use: importing gpelab,
a groundstate run and a config-error exit never load them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import gpelab

LAZY = ("scipy.interpolate", "scipy.optimize")

# run in one fresh interpreter; after each step it prints the step's name
# and the modules of LAZY that are loaded by then
_SCRIPT = """
import json, sys
from pathlib import Path

import numpy as np

tmp = Path(sys.argv[1])

def seen(step):
    print(json.dumps([step, [m for m in {lazy!r} if m in sys.modules]]))

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
""".format(lazy=LAZY)


def test_interpolate_and_optimize_load_on_first_use(tmp_path):
    src = str(Path(gpelab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(json.loads(line) for line in proc.stdout.splitlines())
    assert loaded == {"import gpelab": [], "import gpelab.cli": [],
                      "groundstate": [], "config error": [],
                      "ProfileInterpolant": list(LAZY)}
