"""The benchmark's tracer (perfbench/tracer.py) wraps gpelab's entry points
by name, so each name it lists must exist in the package.  This checks it
in the fast suite; the perfbench suite would catch a renamed or deleted
entry point only when it runs."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_entry_point_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    table = tracer._entry_points()
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in table if attr not in vars(owner)]
    assert table
    assert not missing
