"""Command-line entry point: config parsing, run orchestration and
machine-readable outputs.

Configs are INI-style key = value sections, validated strictly (unknown
sections or keys are rejected by name).  Every output file embeds the fully
resolved configuration, and all randomness is seeded from [run] seed, so
identical configs produce byte-identical outputs.

Exit codes: 0 success, 1 solver failure, 2 config error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import closedforms, experiments, functionals
from . import groundstate as gs
from .evolve import EvolveConfig, evolve as run_evolution
from .evolve import predict_collapse_time
from .core import (ModelParams, ParameterError, RadialField, RadialGrid,
                   grad_norm_sq, integrate_radial, mass,
                   require_positive_finite, validate_params)

__all__ = ["main", "run", "ConfigError"]


class ConfigError(ValueError):
    pass


_FLOAT_LIST = "float_list"
_BOOL = "bool"
_COUNT = "count"          # an integer >= 1
_POSITIVE = "positive"    # a positive, finite float

# (type, default) per key; a key with default None stays out of the resolved
# config unless the file sets it
_CONFIG = {
    "model": {"dim": (int, 3), "b": (float, 0.5), "p": (float, 2.0),
              "gamma": (float, 1.0), "omega": (float, 0.0)},
    "grid": {"h": (float, 2e-3), "rmax": (float, 8.0)},
    "run": {"seed": (int, 12345), "workers": (_COUNT, 1)},
    "groundstate": {"method": (str, "shoot"), "tol": (_POSITIVE, 1e-8),
                    "q": (_POSITIVE, None), "ball_radius": (_POSITIVE, None),
                    "rmax": (float, None)},
    "evolve": {"dt": (float, 1e-3), "t_end": (float, 1.0),
               "free_equation": (_BOOL, False),
               "blowup_gradient_factor": (float, 1e3),
               "record_every": (int, 10), "coupling": (float, 1.0),
               "initial": (str, "oscillator_mode"), "amplitude": (float, 1.0),
               "dilation": (float, 1.0), "width": (_POSITIVE, 1.0)},
    "sweep": {"c_values": (_FLOAT_LIST, [0.8, 0.9, 0.95, 1.0, 1.05, 1.1]),
              "lambda_values": (_FLOAT_LIST, [1.65]), "dt": (float, 2e-4),
              "t_end": (float, math.pi), "record_every": (int, 20),
              "blowup_gradient_factor": (float, 1e3),
              "criterion_tol": (float, 1e-3)},
    "levels": {"n_random": (int, 20)},
    "lens": {"dt": (float, 1e-3), "t_max_frac": (float, 0.8),
             "n_check": (_COUNT, 5), "amplitude": (float, 0.4),
             "width": (_POSITIVE, 1.0), "free_rmax": (float, 40.0)},
    "uniqueness": {"r_max": (float, 10.0), "n_samples": (_COUNT, 200)},
}


def _convert(section, key, raw):
    kind = _CONFIG[section][key][0]
    name = f"[{section}] {key}"
    try:
        if kind is _BOOL:
            low = raw.strip().lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if kind is _FLOAT_LIST:
            return [float(tok) for tok in raw.replace(";", ",").split(",")
                    if tok.strip()]
        value = {_COUNT: int, _POSITIVE: float}.get(kind, kind)(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc
    # the keys that no library constructor checks
    if kind is _COUNT and value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")
    if kind is _POSITIVE:
        _from_config(require_positive_finite, name, value)
    return value


def load_config(path) -> dict:
    """Parse and validate a config file; unknown keys are rejected by name."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg = {section: {key: default for key, (_, default) in keys.items()
                     if default is not None}
           for section, keys in _CONFIG.items()}
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in _CONFIG:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser[section].items():
                if key not in _CONFIG[section]:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                cfg[section][key] = _convert(section, key, raw)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: "
                          + " ".join(str(exc).split())) from exc
    return cfg


def _flatten(cfg: dict) -> dict:
    flat = {}
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            flat[f"{section}.{key}"] = cfg[section][key]
    return flat


def _from_config(build, *args, **kwargs):
    """build(*args, **kwargs) on config values: the one place where a
    ParameterError becomes a ConfigError (exit 2, no marker).  Errors
    raised while solving stay solver failures."""
    try:
        return build(*args, **kwargs)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _model(cfg) -> ModelParams:
    return _from_config(validate_params, cfg["model"])


def _grid(cfg, params) -> RadialGrid:
    g = cfg["grid"]
    return _from_config(RadialGrid, h=g["h"], rmax=g["rmax"], dim=params.dim)


def _write_json(path, payload, cfg):
    payload = {"config": _flatten(cfg), **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------- commands

def _cmd_groundstate(cfg, out_dir: Path) -> int:
    params = _model(cfg)
    section = cfg["groundstate"]
    method, tol = section["method"], section["tol"]
    if method == "soliton":
        grid = _from_config(gs.soliton_grid, params, h=cfg["grid"]["h"],
                            rmax=section.get("rmax", 20.0))
        result = gs.solve_soliton(params, grid, tol=tol)
    elif method == "shoot":
        result = gs.solve_bound_state(params, _grid(cfg, params), tol=tol)
    elif method == "flow":
        if "q" not in section:
            raise ConfigError("[groundstate] q is required for method = flow")
        result = gs.constrained_minimizer(
            section["q"], params, _grid(cfg, params),
            ball_radius=section.get("ball_radius"), tol=tol)
    else:
        raise ConfigError(f"unknown [groundstate] method: {method}")
    gs.save_profile(out_dir / "profile.txt", result, params,
                    extra_header=_flatten(cfg))
    rep = functionals.report(result.profile, params) if params.omega is not None else None
    _write_json(out_dir / "groundstate.json", {
        "method": method,
        "omega": result.omega,
        "residual_sup": result.residual_sup,
        "pohozaev_1": result.pohozaev_1,
        "pohozaev_2": result.pohozaev_2,
        "mass": result.mass,
        "energy": result.energy,
        "iterations": result.iterations,
        "converged": result.converged,
        "status": result.status,
        "functionals": None if rep is None else rep.__dict__,
    }, cfg)
    return 0


def _initial_state(cfg, params, grid) -> RadialField:
    section = cfg["evolve"]
    kind = section["initial"]
    amp = section["amplitude"]
    if kind == "oscillator_mode":
        base = closedforms.oscillator_mode(params, grid)
        return experiments.scale_amplitude(base, amp)
    if kind == "gaussian":
        width = section["width"]
        return RadialField(grid, amp * np.exp(-grid.r ** 2 / (2.0 * width ** 2)))
    if kind == "bound_state":
        res = gs.solve_bound_state(params, grid)
        return experiments.scale_amplitude(res.profile, amp)
    if kind == "soliton_scaled":
        crit = params if params.is_critical else ModelParams(
            params.dim, params.b, params.p_critical, params.gamma, params.omega)
        sol = gs.solve_soliton(crit, gs.soliton_grid(crit, h=grid.h))
        return experiments._scaled_soliton(sol.profile, grid, crit, amp,
                                           section["dilation"])
    raise ConfigError(f"unknown [evolve] initial: {kind}")


def _cmd_evolve(cfg, out_dir: Path) -> int:
    params = _model(cfg)
    grid = _grid(cfg, params)
    section = cfg["evolve"]
    run_cfg = _from_config(
        EvolveConfig, dt=section["dt"], t_end=section["t_end"],
        free_equation=section["free_equation"],
        blowup_gradient_factor=section["blowup_gradient_factor"],
        record_every=section["record_every"], coupling=section["coupling"])
    u0 = _initial_state(cfg, params, grid)
    result = run_evolution(u0, params, run_cfg)
    result.series.to_csv(out_dir / "diagnostics.csv", metadata=_flatten(cfg))
    _write_json(out_dir / "evolve.json", {
        "blowup_time": result.blowup_time,
        "final_time": result.final_time,
        "records": len(result.series.t),
    }, cfg)
    return 0


def _cmd_sweep(cfg, out_dir: Path) -> int:
    params = _model(cfg)
    grid = _grid(cfg, params)
    section = cfg["sweep"]
    _from_config(params.require_critical, "the threshold sweep")
    run_cfg = _from_config(
        EvolveConfig, dt=section["dt"], t_end=section["t_end"],
        blowup_gradient_factor=section["blowup_gradient_factor"],
        record_every=section["record_every"])
    soliton = gs.solve_soliton(params, gs.soliton_grid(params, h=grid.h))
    result = experiments.threshold_sweep(
        soliton.profile, params, grid, section["c_values"],
        section["lambda_values"], run_cfg,
        criterion_tol=section["criterion_tol"],
        workers=cfg["run"]["workers"])
    result.to_csv(out_dir / "sweep.csv", metadata=_flatten(cfg))
    _write_json(out_dir / "sweep.json", result.as_dict(), cfg)
    bad = [row for row in result.rows if row.outcome == "failed"]
    return 1 if bad else 0


def _cmd_levels(cfg, out_dir: Path) -> int:
    params = _model(cfg)
    grid = _grid(cfg, params)
    levels = experiments.estimate_levels(
        params, grid, n_random=cfg["levels"]["n_random"],
        seed=cfg["run"]["seed"])
    _write_json(out_dir / "levels.json", levels.as_dict(), cfg)
    levels.to_csv(out_dir / "levels.csv", metadata=_flatten(cfg))
    return 0


def _cmd_uniqueness(cfg, out_dir: Path) -> int:
    params = _model(cfg)
    section = cfg["uniqueness"]
    samples = np.linspace(0.05, section["r_max"], section["n_samples"])
    report = gs.uniqueness_report(params, r_samples=samples)
    _write_json(out_dir / "uniqueness.json", asdict(report), cfg)
    return 0


def _cmd_lens(cfg, out_dir: Path) -> int:
    """Free-side run mapped through the lens versus the direct trapped run."""
    params = _model(cfg)
    _from_config(params.require_critical, "the lens equivalence")
    section = cfg["lens"]
    checks, mismatches, roundtrip = experiments.lens_check(
        params, _grid(cfg, params), section["free_rmax"], section["dt"],
        section["t_max_frac"] * closedforms.caustic_time(params),
        section["n_check"], section["amplitude"], section["width"])
    _write_json(out_dir / "lens_report.json", {
        "check_times": checks,
        "l2_mismatch": mismatches,
        "max_l2_mismatch": max(mismatches),
        "roundtrip_sup_error": roundtrip,
    }, cfg)
    return 0


# ------------------------------------------------------------------ verify

def _verify_checks(cfg):
    """Yield (name, passed, detail) for the invariant suite."""
    params = _model(cfg)
    if params.omega is None:
        params = params.with_omega(0.0)
    grid = _grid(cfg, params)
    gamma, N = params.gamma, params.dim

    ones = np.ones(grid.n)
    ball = integrate_radial(ones, grid)
    exact_ball = (grid.sphere / N) * grid.rmax ** N
    yield ("quadrature: ball volume", abs(ball / exact_ball - 1) < 1e-6,
           f"rel err {ball / exact_ball - 1:.2e}")
    gauss = integrate_radial(np.exp(-grid.r ** 2), grid)
    yield ("quadrature: gaussian", abs(gauss / np.pi ** (N / 2) - 1) < 1e-6,
           f"rel err {gauss / np.pi ** (N / 2) - 1:.2e}")

    m = functionals._field_moments(closedforms.oscillator_mode(params, grid),
                                   params)
    ray = m.h_norm_sq(gamma, 0.0) / m.M
    yield ("oscillator: Rayleigh quotient", abs(ray / (gamma * N) - 1) < 1e-4,
           f"rel err {ray / (gamma * N) - 1:.2e}")
    hi = m.M - (2.0 / N) * math.sqrt(m.G * m.V)
    yield ("oscillator: uncertainty equality", abs(hi) / m.M < 1e-6,
           f"rel defect {hi / m.M:.2e}")

    crit = params if params.is_critical else ModelParams(
        N, params.b, params.p_critical, gamma, params.omega)
    soliton = gs.solve_soliton(crit, gs.soliton_grid(crit, h=grid.h))
    yield ("soliton: residual", soliton.residual_sup < 1e-8,
           f"sup {soliton.residual_sup:.2e}")
    m = functionals._field_moments(soliton.profile, crit)
    pi_rel = ((N + 2 - params.b) / N * m.G - m.P) / m.P
    yield ("soliton: scaling identity", abs(pi_rel) < 1e-6, f"rel {pi_rel:.2e}")

    bound = gs.solve_bound_state(params, grid)
    rep = functionals.report(bound.profile, params)
    H, K, I = rep.h_omega_norm_sq, rep.nehari, rep.virial
    yield ("bound state: nehari zero", abs(K) < 1e-6 * H, f"K/H {K / H:.2e}")
    yield ("bound state: virial zero", abs(I) < 1e-6 * H, f"I/H {I / H:.2e}")

    cfg_run = EvolveConfig(dt=1e-3, t_end=2.0, record_every=100)
    run = run_evolution(bound.profile, params, cfg_run)
    mdrift = float(np.max(np.abs(run.series.mass - run.series.mass[0])))
    mdrift /= run.series.mass[0] * run.series.t[-1]
    yield ("evolution: mass conservation", mdrift < 1e-10,
           f"drift/unit time {mdrift:.2e}")

    d_om = experiments.estimate_d_omega(params, grid,
                                        reference=bound.profile, n_random=3,
                                        seed=cfg["run"]["seed"])
    S_phi = functionals.action(bound.profile, params)
    yield ("levels: least action matches minimizer",
           abs(d_om - S_phi) <= 1e-2 * S_phi, f"{d_om} vs {S_phi}")
    dn, pts = experiments.estimate_d_n_upper(bound.profile, params)
    ok = all(pt.nehari < 0 and abs(pt.virial) < 1e-8 * grad_norm_sq(pt.field)
             for pt in pts)
    yield ("levels: cross points admissible", ok and dn > 0,
           f"d_n_upper {dn:.4f} from {len(pts)} points")

    if params.dim >= 3 and params.b < 1.0:
        rep = gs.uniqueness_report(params)
        yield ("uniqueness: sign conditions", rep.conditions_hold,
               f"A {rep.A:.3g}, C {rep.C:.3g}, k {rep.k:.3g}")

    if params.is_critical:
        sol_interp = closedforms.ProfileInterpolant(soliton.profile)
        u0 = RadialField(grid, 1.1 * sol_interp(grid.r))
        tau = predict_collapse_time(u0, params)
        run_cfg = EvolveConfig(dt=2e-4, t_end=1.1 * tau + 0.1,
                               record_every=10)
        run = run_evolution(u0, params, run_cfg)
        ok = run.blowup_time is not None and run.blowup_time <= 1.1 * tau
        yield ("collapse: flag before predicted time", ok,
               f"flag {run.blowup_time}, predicted {tau:.4f}")

        fp = closedforms.BlowupFamilyParams(theta0=0.3, T=0.55 / gamma,
                                            lambda0=1.0)
        u_a = closedforms.minimal_mass_solution(fp, 0.0, params,
                                                soliton.profile, grid)
        u_b = closedforms.minimal_mass_initial(fp, params, soliton.profile,
                                               grid)
        err = float(np.max(np.abs(u_a.values - u_b.values)))
        yield ("minimal mass: initial-data formula", err < 1e-10,
               f"sup diff {err:.2e}")
        mm = [abs(mass(closedforms.minimal_mass_solution(
            fp, t, params, soliton.profile, grid)) / soliton.mass - 1)
            for t in (0.0, 0.25 * fp.T, 0.5 * fp.T)]
        yield ("minimal mass: critical mass", max(mm) < 1e-6,
               f"max rel {max(mm):.2e}")


def _cmd_verify(cfg, out_dir: Path) -> int:
    rows = []
    failed = 0
    for name, ok, detail in _verify_checks(cfg):
        rows.append({"check": name, "passed": bool(ok), "detail": detail})
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        if not ok:
            failed += 1
    _write_json(out_dir / "verify_report.json",
                {"checks": rows, "failed": failed}, cfg)
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "groundstate": _cmd_groundstate,
    "evolve": _cmd_evolve,
    "sweep": _cmd_sweep,
    "levels": _cmd_levels,
    "lens": _cmd_lens,
    "verify": _cmd_verify,
    "uniqueness": _cmd_uniqueness,
}


def run(command: str, config_path, out_dir) -> int:
    """Run one subcommand; returns the process exit status."""
    out_dir = Path(out_dir)
    try:
        cfg = load_config(config_path)
        if command not in _COMMANDS:
            raise ConfigError(f"unknown command {command!r}; "
                              f"choose from {sorted(_COMMANDS)}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        marker = out_dir / f"{command}.failed"
        marker.write_text(f"{type(exc).__name__}: {exc}\n")
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpelab",
        description="Numerical laboratory for the trapped inhomogeneous "
                    "Gross-Pitaevskii equation")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="INI config file")
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
