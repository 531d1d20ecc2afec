"""The three workloads: seeded op lists over gpelab's public API.

All runs sit at the acceptance defaults N=3, b=0.5, gamma=1, h=2e-3 unless
an op says otherwise.  The seed moves each op's inputs inside a narrow band
around a fixed centre, so every seed runs the same kinds of work at nearly
the same cost, and no band reaches a region where the seed program fails.
Known-defect points are fixed inputs, not seeded.

Why these workloads:
- stationary: groundstate only (pure-Python shooting is ~85% of a solve);
  never calls evolve, so evolve changes must not move it.
- dynamics: evolve dominates (Strang/CN stepping); groundstate appears only
  in its set-up (fixture solves), so solver changes move only its setup_s.
- levels: experiments, functionals, closedforms (projected trials and
  dilation probes that rebuild splines); never calls evolve.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
from gpelab import cli
from gpelab.core import ModelParams, RadialField, RadialGrid, default_grid
from gpelab.evolve import EvolveConfig
from gpelab.functionals import SetLabel, action
import gpelab.evolve as evolve_module
import gpelab.experiments as experiments
import gpelab.groundstate as gs

import checks as ck
from tracer import steps_taken

N, B, GAMMA = 3, 0.5, 1.0
TOL = 1e-8


@dataclass
class Op:
    """One timed call into gpelab.

    run(work_dir) is the timed part; verify(result) returns the
    (check, passed, detail) triples; units(result) is the work it completed
    (solves, steps or trials); digest(result) hashes its outputs so repeats
    of the same op can be compared byte for byte.
    """

    name: str
    kind: str
    run: Callable
    verify: Callable
    digest: Callable
    units: Callable = lambda result: 1
    known_defect: str | None = None


def ran(check, *args):
    ok, detail = check(*args)
    return check.__name__, bool(ok), detail


def sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def params(p, omega=0.0, dim=N, b=B):
    return ModelParams(dim=dim, b=b, p=p, gamma=GAMMA, omega=omega)


# ---------------------------------------------------------------- stationary

def _profile_checks(u, coeff, prm):
    return [ran(ck.residual, u, coeff, prm, TOL),
            ran(ck.nontrivial, u.values), ran(ck.positive, u.values),
            ran(ck.monotone, u.values)]


def _bound_state_op(prm, grid, known_defect=None):
    coeff = prm.omega + prm.gamma ** 2 * grid.r ** 2
    return Op(
        name=f"solve_bound_state[N={prm.dim},b={prm.b},p={prm.p},"
             f"omega={prm.omega:.4f}]",
        kind="solve_bound_state",
        run=lambda work: gs.solve_bound_state(prm, grid, tol=TOL),
        verify=lambda res: _profile_checks(res.profile, coeff, prm),
        digest=lambda res: sha(res.profile.values.tobytes()),
        known_defect=known_defect)


def _soliton_op(prm, grid):
    return Op(
        name=f"solve_soliton[rmax={grid.rmax:g}]", kind="solve_soliton",
        run=lambda work: gs.solve_soliton(prm, grid, tol=TOL),
        verify=lambda res: _profile_checks(res.profile, np.ones(grid.n), prm),
        digest=lambda res: sha(res.profile.values.tobytes()))


def _minimizer_op(q, prm, grid, ball_radius=None):
    def verify(res):
        coeff = res.omega + prm.gamma ** 2 * grid.r ** 2
        out = _profile_checks(res.profile, coeff, prm)
        out.append(ran(ck.mass_target, res.mass, q))
        if ball_radius is not None:
            out.append(ran(ck.multiplier_floor, res.omega, prm.omega_min))
        return out
    return Op(
        name=f"constrained_minimizer[p={prm.p},q={q:g},ball={ball_radius}]",
        kind="constrained_minimizer",
        run=lambda work: gs.constrained_minimizer(q, prm, grid,
                                               ball_radius=ball_radius, tol=TOL),
        verify=verify,
        digest=lambda res: sha(res.profile.values.tobytes(), res.omega))


def _write_config(path: Path, prm, method, extra="") -> Path:
    path.write_text(
        f"[model]\ndim = {prm.dim}\nb = {prm.b!r}\np = {prm.p!r}\n"
        f"gamma = {prm.gamma!r}\nomega = {prm.omega!r}\n\n"
        f"[grid]\nh = 0.002\nrmax = 8.0\n\n[run]\nseed = 1\nworkers = 1\n\n"
        f"[groundstate]\nmethod = {method}\ntol = {TOL!r}\n{extra}")
    return path


def _cli_op(name, config: Path, prm, coeff_of, known_defect=None):
    """gpelab.cli.run("groundstate", ...) plus reading the profile back, so
    the writing and parsing of profile.txt and groundstate.json are timed."""
    def run(work):
        code = cli.run("groundstate", config, work)
        field_, header = gs.load_profile(work / "profile.txt")
        payload = json.loads((work / "groundstate.json").read_text())
        files = [(work / f).read_bytes() for f in ("profile.txt",
                                                   "groundstate.json")]
        return code, field_, header, payload, files

    def verify(out):
        code, field_, header, payload, _ = out
        header_ok = (header["dim"] == prm.dim and header["p"] == prm.p
                     and field_.grid.n == 4000)
        return [ran(ck.cli_outputs, code, header_ok, payload, TOL),
                *_profile_checks(field_, coeff_of(payload), prm)]

    return Op(name=name, kind="cli_groundstate", run=run, verify=verify,
              digest=lambda out: sha(*out[4]), known_defect=known_defect)


def stationary(seed: int, smoke: bool, work: Path):
    rng = np.random.default_rng(seed)
    grid = default_grid(params(2.0))
    ops = []
    centres = (0.0,) if smoke else (-0.75, 0.5)
    for p in (1.5, 2.0, 2.5):
        for centre in centres:
            ops.append(_bound_state_op(
                params(p, centre + rng.uniform(-0.25, 0.25)), grid))
    pc = params(2.0, omega=None)
    ops.append(_soliton_op(pc, gs.soliton_grid(pc)))
    ops.append(_minimizer_op(1.0, params(1.5), grid))
    for q in (1e-3, 1e-2, 1e-1):
        ops.append(_minimizer_op(q * (1.0 + rng.uniform(-0.05, 0.05)),
                                 params(2.5), grid, ball_radius=1.0))

    shoot = params(2.0, rng.uniform(-0.5, 0.5))
    cfg_shoot = _write_config(work / "shoot.ini", shoot, "shoot")
    flow = params(1.5)
    cfg_flow = _write_config(work / "flow.ini", flow, "flow", "q = 1.0\n")
    trap = grid.r ** 2
    shoot_name = f"cli_groundstate[shoot,omega={shoot.omega:.4f}]"
    for repeat in ("", "#2"):
        op = _cli_op(shoot_name, cfg_shoot, shoot,
                     lambda payload: payload["omega"] + trap)
        op.name += repeat
        ops.append(op)
    ops.append(_cli_op("cli_groundstate[flow,p=1.5,q=1]", cfg_flow, flow,
                       lambda payload: payload["omega"] + trap,
                       known_defect="save_profile writes the multiplier as "
                       "np.float64(...), which load_profile cannot parse"))

    defects = [
        (params(2.0, dim=1), "N=1 discretized with a wall at the origin"),
        (params(3.0, dim=1), "N=1 discretized with a wall at the origin"),
        (params(2.0, dim=2, b=1.9), "trivial state reported as converged"),
        (params(1.15, b=1.9), "trivial state reported as converged"),
        (params(2.0, 80.0), "absolute residual tolerance at large amplitude"),
        (params(1.6, dim=5), "absolute residual tolerance at large amplitude"),
        (params(1.5, 5.0), "absolute residual tolerance at large amplitude"),
        (params(1.5, 20.0), "absolute residual tolerance at large amplitude"),
    ]
    if smoke:
        defects = defects[2:3] + defects[4:5]
    for prm, why in defects:
        ops.append(_bound_state_op(prm, default_grid(prm), known_defect=why))
    return ops


# ------------------------------------------------------------------ dynamics

class EvolveRecorder:
    """Keeps the (config, result) of every evolve() made inside
    gpelab.experiments, whose sweep rows and dichotomy results do not carry
    the diagnostic series the mass-drift check needs.  It looks evolve up
    on its module at call time, so tracing still sees the call."""

    def __init__(self):
        self.runs = []
        experiments.evolve = self

    def __call__(self, u0, prm, cfg):
        res = evolve_module.evolve(u0, prm, cfg)
        self.runs.append((cfg, res))
        return res

    def take(self):
        runs, self.runs = self.runs, []
        return runs


def _runs_checks(runs):
    return [ran(ck.mass_drift_bound, res.series) for _, res in runs]


def _runs_steps(runs):
    return sum(steps_taken(cfg, res.final_time) for cfg, res in runs)


def _sweep_op(recorder, soliton, grid, prm, c, lam, t_end):
    cfg = EvolveConfig(dt=2e-4, t_end=t_end, record_every=20)

    def run(work):
        sweep = experiments.threshold_sweep(soliton, prm, grid, (c,), (lam,),
                                            cfg, criterion_tol=1e-3)
        return sweep.rows[0], recorder.take()
    return Op(
        name=f"threshold_row[c={c:.4f},lambda={lam:.4f}]", kind="threshold_row",
        run=run,
        verify=lambda out: [ran(ck.sweep_side, out[0]), *_runs_checks(out[1])],
        digest=lambda out: sha(out[0].as_dict(),
                               *(r.series.mass.tobytes() for _, r in out[1])),
        units=lambda out: _runs_steps(out[1]))


def _dichotomy_op(recorder, profile, prm, level, lam, mu, times, dt, expected,
                  t_end):
    cfg = EvolveConfig(dt=dt, t_end=t_end, record_every=50)

    def run(work):
        u0 = experiments.scale_amplitude(
            experiments.scale_mass_preserving(profile, mu), lam)
        out = experiments.dichotomy_run(u0, prm, level, cfg, sample_times=times)
        return out, recorder.take()
    return Op(
        name=f"dichotomy_run[p={prm.p},lam={lam:.4f},mu={mu:.4f}]",
        kind="dichotomy_run", run=run,
        verify=lambda out: [ran(ck.dichotomy, out[0], expected),
                            *_runs_checks(out[1])],
        digest=lambda out: sha(out[0].initial_label, out[0].labels,
                               out[0].blowup_time, out[0].hnorm_max),
        units=lambda out: _runs_steps(out[1]))


def _evolve_op(name, u0, prm, cfg, verify, pair=None):
    """A direct evolve() whose diagnostics are written as CSV."""
    def run(work):
        res = evolve_module.evolve(u0, prm, cfg)
        res.series.to_csv(work / "diagnostics.csv",
                          metadata={"record_every": cfg.record_every})
        if pair is not None:
            pair[cfg.record_every] = res
        return res, (work / "diagnostics.csv").read_bytes()
    return Op(name=name, kind="evolve", run=run,
              verify=lambda out: verify(out[0]),
              digest=lambda out: sha(out[1], out[0].final.values.tobytes()),
              units=lambda out: steps_taken(cfg, out[0].final_time))


def _fixtures(with_soliton: bool):
    """Stationary states the dynamics and levels ops start from."""
    pc, ps = params(2.0), params(2.5)
    grid = default_grid(pc)
    fx = SimpleNamespace(pc=pc, ps=ps, grid=grid, soliton=None)
    if with_soliton:
        crit = params(2.0, omega=None)
        fx.soliton = gs.solve_soliton(crit, gs.soliton_grid(crit), tol=TOL)
    fx.bound = gs.solve_bound_state(pc, grid, tol=TOL)
    fx.bound_super = gs.solve_bound_state(ps, grid, tol=TOL)
    fx.action = action(fx.bound.profile, pc)
    fx.action_super = action(fx.bound_super.profile, ps)
    return fx


def dynamics(seed: int, smoke: bool, work: Path):
    rng = np.random.default_rng(seed)
    fx = _fixtures(with_soliton=True)
    recorder = EvolveRecorder()

    def jitter(x, rel):
        return x * (1.0 + rng.uniform(-rel, rel))
    grid, pc, ps = fx.grid, fx.pc, fx.ps
    ops = []
    row_t_end = 0.6 if smoke else math.pi
    for c in (0.90, 1.08):
        ops.append(_sweep_op(recorder, fx.soliton.profile, grid, pc,
                             c + rng.uniform(-0.02, 0.02),
                             jitter(1.65, 0.02),
                             row_t_end if c < 1.0 else math.pi))
    # criterion-09 style runs: bounded R_PLUS at dt=1e-3, collapsing
    # K_MINUS at dt=2.5e-4; the level is the least action of the state
    dich_t_end = 0.6 if smoke else math.pi
    ops.append(_dichotomy_op(recorder, fx.bound.profile, pc, fx.action,
                             jitter(0.45, 0.02), 1.0, (0.5, 1.0, 2.0), 1e-3,
                             SetLabel.R_PLUS, dich_t_end))
    ops.append(_dichotomy_op(recorder, fx.bound.profile, pc, fx.action,
                             jitter(1.4, 0.02), 1.5, (0.02, 0.05), 2.5e-4,
                             SetLabel.K_MINUS, math.pi))
    ops.append(_dichotomy_op(recorder, fx.bound_super.profile, ps,
                             fx.action_super, jitter(1.1, 0.02), 1.0,
                             (0.02, 0.05), 2.5e-4, SetLabel.K_MINUS, math.pi))

    # dense (every step) versus sparse (every 50th) diagnostics of one run
    amp = jitter(0.8, 0.05)
    u0 = experiments.scale_amplitude(fx.bound.profile, amp)
    t_end = 0.1 if smoke else 0.5
    pair = {}

    def verify_sparse(res):
        return [ran(ck.mass_drift_bound, res.series),
                ran(ck.record_cadence, pair[1], res, 50)]
    ops.append(_evolve_op(f"evolve[dense,amp={amp:.4f}]", u0, pc,
                          EvolveConfig(dt=1e-3, t_end=t_end, record_every=1),
                          lambda res: [ran(ck.mass_drift_bound, res.series)],
                          pair))
    ops.append(_evolve_op(f"evolve[sparse,amp={amp:.4f}]", u0, pc,
                          EvolveConfig(dt=1e-3, t_end=t_end, record_every=50),
                          verify_sparse, pair))

    # free equation on the rmax=40 lens mesh (n=20000)
    free_grid = RadialGrid(h=2e-3, rmax=40.0, dim=N)
    amp_f = jitter(0.4, 0.05)
    uf = RadialField(free_grid, amp_f * np.exp(-free_grid.r ** 2 / 2.0))
    ops.append(_evolve_op(
        f"evolve[free,rmax=40,amp={amp_f:.4f}]", uf, pc,
        EvolveConfig(dt=1e-3, t_end=0.05 if smoke else 0.3,
                     free_equation=True, record_every=50),
        lambda res: [ran(ck.mass_drift_bound, res.series),
                     ran(ck.energy_drift_bound, res.series)]))
    return ops


# -------------------------------------------------------------------- levels

def _d_omega_op(name, prm, grid, check, action_ref, reference, n_random, seed):
    trials = n_random + (6 if reference is not None else 0)
    return Op(
        name=name, kind="estimate_d_omega",
        run=lambda work: experiments.estimate_d_omega(
            prm, grid, reference=reference, n_random=n_random, seed=seed),
        verify=lambda value: [ran(check, value, action_ref)],
        digest=lambda value: sha(float(value).hex()),
        units=lambda value: trials)


def _d_n_upper_op(profile, prm):
    return Op(
        name=f"estimate_d_n_upper[p={prm.p}]", kind="estimate_d_n_upper",
        run=lambda work: experiments.estimate_d_n_upper(profile, prm),
        verify=lambda out: [ran(ck.cross_points, out[0], out[1])],
        digest=lambda out: sha(float(out[0]).hex(),
                               *(pt.field.values.tobytes() for pt in out[1])),
        units=lambda out: 0)


def levels(seed: int, smoke: bool, work: Path):
    rng = np.random.default_rng(seed)
    fx = _fixtures(with_soliton=False)
    grid = fx.grid
    n_random = 2 if smoke else 10
    ops = []
    for _ in range(1 if smoke else 4):
        trial_seed = int(rng.integers(2 ** 31))
        ops.append(_d_omega_op(
            f"estimate_d_omega[random,p=2,n={n_random},seed={trial_seed}]",
            fx.pc, grid, ck.d_omega_random, fx.action, None, n_random,
            trial_seed))
    for prm, ref, s_ref, n in ((fx.pc, fx.bound, fx.action, 5),
                               (fx.ps, fx.bound_super, fx.action_super, 3)):
        trial_seed = int(rng.integers(2 ** 31))
        ops.append(_d_omega_op(
            f"estimate_d_omega[reference,p={prm.p},n={n},seed={trial_seed}]",
            prm, grid, ck.d_omega_reference, s_ref, ref.profile, n,
            trial_seed))
    ops.append(_d_n_upper_op(fx.bound.profile, fx.pc))
    ops.append(_d_n_upper_op(fx.bound_super.profile, fx.ps))
    return ops


WORKLOADS = {"stationary": stationary, "dynamics": dynamics, "levels": levels}
# Parts of each workload's calibration kernel (see harness.py), after the
# work its ops spend their time in: interpreted RK4 shooting in stationary;
# numpy stepping and projections driven from Python in the other two.  Of
# the kernels tried (perfbench/NOTES.md), these left the least spread.
CALIBRATION = {"stationary": ("rk4",), "dynamics": ("loop", "solves"),
               "levels": ("loop", "solves")}
# Per-workload rate: what one unit of Op.units is.
RATE_NAMES = {"stationary": "solves_per_s", "dynamics": "steps_per_s",
              "levels": "trials_per_s"}
