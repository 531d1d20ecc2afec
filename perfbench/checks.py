"""Correctness checks applied to every op's output.

Each check is a function registered under a name; it returns
(passed, detail).  The harness records every check that ran on every op,
so the smoke test can assert that each registered check is wired into some
workload and that each one rejects a wrong output.
"""

from __future__ import annotations

import numpy as np
from gpelab.core import apply_laplacian, grad_norm_sq

from tracer import NONTRIVIAL_FLOOR, mass_drift

CHECKS = {}

# Relative mass drift allowed over one run: the Crank-Nicolson step is
# unitary and the phase flow exact, so the seed drifts ~1e-12 at most.
MASS_DRIFT_TOL = 1e-10
# Relative energy drift allowed over the short free-equation run.
ENERGY_DRIFT_TOL = 1e-6
# Agreement of d_omega estimates with the action of the computed state
# (the acceptance suite's criterion-09 tolerance).
LEVEL_REL_TOL = 1e-2


def check(fn):
    CHECKS[fn.__name__] = fn.__doc__.strip().splitlines()[0]
    return fn


@check
def residual(u, coeff, params, tol):
    """Discrete stationary residual sup|-Lap u + c u - r^-b |u|^(p-1) u| <= tol."""
    v = u.values.real
    F = (-apply_laplacian(v, u.grid) + coeff * v
         - u.grid.r ** (-params.b) * np.abs(v) ** (params.p - 1.0) * v)
    res = float(np.max(np.abs(F)))
    return res <= tol, f"residual {res:.3e} vs tol {tol:.1e}"


@check
def nontrivial(values):
    """max|u| above the nontriviality floor."""
    top = float(np.max(np.abs(values)))
    return top > NONTRIVIAL_FLOOR, f"max|u| {top:.3e} vs floor {NONTRIVIAL_FLOOR:.0e}"


@check
def positive(values):
    """Profile strictly positive on the grid."""
    low = float(np.min(np.asarray(values).real))
    return low > 0.0, f"min u {low:.3e}"


@check
def monotone(values):
    """Profile nonincreasing in r."""
    rise = float(np.max(np.diff(np.asarray(values).real)))
    return rise <= 0.0, f"largest rise {rise:.3e}"


@check
def mass_target(mass, q):
    """Constrained minimizer has mass q (relative 1e-8)."""
    rel = abs(mass - q) / q
    return rel < 1e-8, f"mass {mass:.12g} vs q {q:g}"


@check
def multiplier_floor(omega, floor):
    """Multiplier above the trap floor -gamma N."""
    return omega > floor, f"omega {omega:.6g} vs floor {floor:g}"


@check
def cli_outputs(exit_code, header_ok, payload, tol):
    """CLI exits 0, writes both outputs, reports a converged state within tol."""
    ok = (exit_code == 0 and header_ok and payload.get("converged") is True
          and payload.get("residual_sup", np.inf) <= tol)
    return ok, (f"exit {exit_code}, header_ok {header_ok}, "
                f"residual {payload.get('residual_sup')}")


@check
def mass_drift_bound(series):
    """Relative mass drift of a run within MASS_DRIFT_TOL."""
    drift = mass_drift(series)
    return drift < MASS_DRIFT_TOL, f"mass drift {drift:.2e}"


@check
def energy_drift_bound(series):
    """Relative energy drift of a free-equation run within ENERGY_DRIFT_TOL."""
    e = np.asarray(series.energy)
    drift = float(np.max(np.abs(e - e[0])) / abs(e[0]))
    return drift < ENERGY_DRIFT_TOL, f"energy drift {drift:.2e}"


@check
def sweep_side(row):
    """Sweep row on the expected side of c = 1: bounded below (gradient
    ratio <= 3), blow-up above (t_blow <= 1.1 t_pred)."""
    if row.c < 1.0:
        ok = row.outcome == "global_bounded" and row.max_grad_ratio <= 3.0
    else:
        ok = (row.outcome == "blowup" and row.t_pred is not None
              and row.t_blow <= 1.1 * row.t_pred)
    return ok, (f"c={row.c:.4f}: {row.outcome}, ratio {row.max_grad_ratio:.3g}, "
                f"t_blow {row.t_blow}, t_pred {row.t_pred}")


@check
def dichotomy(result, expected):
    """Dichotomy run consistent, with the expected initial label."""
    ok = result.consistent and result.initial_label == expected
    return ok, (f"label {result.initial_label.value} (want {expected.value}), "
                f"consistent {result.consistent} {result.detail}")


@check
def record_cadence(dense, sparse, every):
    """Sparse recording equals every k-th dense row and the same final state."""
    d, s = dense.series, sparse.series
    rows_ok = all(np.array_equal(getattr(d, k)[::every], getattr(s, k))
                  for k in ("t", "mass", "energy", "grad_sq", "f", "f_prime"))
    final_ok = np.array_equal(dense.final.values, sparse.final.values)
    return rows_ok and final_ok, f"rows equal {rows_ok}, final equal {final_ok}"


@check
def d_omega_reference(value, action_ref):
    """Reference-seeded d_omega within 1% of the computed state's action."""
    rel = abs(value - action_ref) / action_ref
    return rel < LEVEL_REL_TOL, f"d_omega {value:.12g} vs S {action_ref:.12g}"


@check
def d_omega_random(value, action_ref):
    """Random-trial d_omega not below the least action and within 1% above."""
    rel = (value - action_ref) / action_ref
    return -1e-9 < rel < LEVEL_REL_TOL, f"d_omega {value:.12g} vs S {action_ref:.12g}"


@check
def cross_points(value, points):
    """Cross points on the constraint: nehari < 0, |virial| < min(1e-8,
    1e-8 ||grad u||^2), positive upper bound."""
    bad = [pt.lam for pt in points
           if not (pt.nehari < 0.0 and abs(pt.virial)
                   < min(1e-8, 1e-8 * grad_norm_sq(pt.field)))]
    ok = bool(points) and value > 0.0 and not bad
    return ok, f"{len(points)} points, value {value:.12g}, off-constraint {bad}"


@check
def determinism(digest, first_digest):
    """Outputs of a repeat of the same op are byte-identical (sha256)."""
    return digest == first_digest, f"sha256 {digest[:12]} vs {first_digest[:12]}"
