"""Orchestrated reproductions: threshold sweeps, variational level estimates,
sign-set dichotomy runs, scaling families and stability experiments."""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .closedforms import (ProfileInterpolant, lens_forward, lens_inverse,
                          snapshot_sampler)
from .core import (ModelParams, ParameterError, RadialField, RadialGrid,
                   _write_table, mass, sigma_inner, sigma_norm_sq)
from .evolve import EvolveConfig, evolve, predict_collapse_time
from .functionals import (SetLabel, _field_moments, action, classify,
                          h_omega_norm_sq, virial, virial_coefficient)
from .groundstate import (GroundStateResult, _nehari_descent,
                          constrained_minimizer, solve_bound_state)

__all__ = [
    "HypothesisError", "SweepRow", "SweepResult", "LevelEstimates",
    "CrossPoint", "DichotomyResult", "StabilityResult",
    "scale_amplitude", "scale_mass_preserving", "scale_dilation",
    "scale_potential_preserving", "dilation_exponent",
    "nehari_project", "estimate_d_omega", "construct_cross_point",
    "estimate_d_n_upper", "estimate_levels",
    "threshold_sweep", "dichotomy_run", "stability_run", "lens_check",
    "random_trial_field",
]


class HypothesisError(ParameterError):
    """The run violates the hypothesis of the statement being probed."""


# ------------------------------------------------------------------ scalings

def _rescale(interp: ProfileInterpolant, grid: RadialGrid, mu: float,
             prefactor: float) -> RadialField:
    return RadialField(grid, prefactor * interp(mu * grid.r))


def _dilate(interp: ProfileInterpolant, grid: RadialGrid, mu: float,
            params: ModelParams) -> RadialField:
    """mu^((2-b)/(p-1)) interp(mu r) on grid: scale_dilation of the
    interpolated profile."""
    return _rescale(interp, grid, mu,
                    mu ** ((2.0 - params.b) / (params.p - 1.0)))


def scale_amplitude(u: RadialField, lam: float) -> RadialField:
    """u -> lam u."""
    return RadialField(u.grid, lam * u.values)


def scale_mass_preserving(u: RadialField, mu: float) -> RadialField:
    """u -> mu^(N/2) u(mu x); preserves the L^2 norm."""
    return _rescale(ProfileInterpolant(u), u.grid, mu,
                    mu ** (u.grid.dim / 2.0))


def scale_dilation(u: RadialField, mu: float, params: ModelParams) -> RadialField:
    """u -> mu^((2-b)/(p-1)) u(mu x), the dilation whose kinetic term scales
    with the positive exponent dilation_exponent(params)."""
    interp = ProfileInterpolant(u, singular_exponent=2.0 - params.b)
    return _dilate(interp, u.grid, mu, params)


def scale_potential_preserving(u: RadialField, mu: float,
                               params: ModelParams) -> RadialField:
    """u -> mu^((N-b)/(p+1)) u(mu x); preserves the potential term P."""
    interp = ProfileInterpolant(u, singular_exponent=2.0 - params.b)
    return _rescale(interp, u.grid, mu,
                    mu ** ((params.dim - params.b) / (params.p + 1.0)))


def dilation_exponent(params: ModelParams) -> float:
    """a = (4 - 2b - (N-2)(p-1)) / (p-1); positive on the admissible range
    and zero exactly at the upper admissible power."""
    return ((4.0 - 2.0 * params.b - (params.dim - 2.0) * (params.p - 1.0))
            / (params.p - 1.0))


# ------------------------------------------------------------ level estimates

def nehari_project(u: RadialField, params: ModelParams):
    """Scale u onto the zero set of the nehari functional.

    Returns (lam0 u, lam0) with lam0 = (||u||_H^2 / P(u))^(1/(p-1)); fields
    already on the zero set are fixed points (lam0 = 1).
    """
    m = _field_moments(u, params)
    if m.P <= 0.0:
        raise ParameterError("cannot project a field with vanishing P")
    H = m.h_norm_sq(params.gamma, params.require_omega())
    if H <= 0.0:
        raise ParameterError("projection needs a positive squared H norm")
    lam0 = (H / m.P) ** (1.0 / (params.p - 1.0))
    return scale_amplitude(u, lam0), lam0


def random_trial_field(grid: RadialGrid, rng: np.random.Generator,
                       complex_part: bool = False) -> RadialField:
    """Random smooth localized trial field (mixture of Gaussian bumps)."""
    r = grid.r
    vals = np.zeros(grid.n, dtype=complex)
    k = rng.integers(2, 4)
    for _ in range(k):
        a = rng.uniform(0.3, 2.0)
        s = rng.uniform(0.6, 2.0)
        c = rng.uniform(0.0, 1.5)
        bump = a * (1.0 + c * r ** 2 / s ** 2) * np.exp(-r ** 2 / (2.0 * s ** 2))
        if complex_part:
            bump = bump * np.exp(1j * rng.uniform(-0.5, 0.5) * r ** 2)
        vals += bump
    return RadialField(grid, vals)


def estimate_d_omega(params: ModelParams, grid: RadialGrid,
                     reference: RadialField | None = None,
                     n_random: int = 40, seed: int = 0) -> float:
    """Least action on the nehari zero set, estimated by projected search.

    Every trial is projected onto the zero set and refined by the Nehari
    descent of the ground-state solve, with its stopping rule; the reported
    value is the smallest action seen.
    With reference set (a computed minimizer) the reference and perturbed
    copies of it join the trial pool, so the estimate matches its action.
    """
    rng = np.random.default_rng(seed)
    coeff = params.require_omega() + params.gamma ** 2 * grid.r_pow(2.0)
    best, skipped = math.inf, []
    trials = []
    if reference is not None:
        trials.append(RadialField(grid, reference.values.real))
        for _ in range(5):
            bump = random_trial_field(grid, rng)
            trials.append(reference + scale_amplitude(bump, 1e-2))
    for _ in range(n_random):
        trials.append(random_trial_field(grid, rng))
    for i, trial in enumerate(trials):
        try:
            proj, _ = nehari_project(trial, params)
        except ParameterError as exc:
            skipped.append(f"trial {i}: {exc}")
            continue
        best = min(best, action(proj, params))
        refined, _ = _nehari_descent(trial.values.real, coeff, grid, params.b,
                                     params.p)
        best = min(best, action(RadialField(grid, refined), params))
    if not math.isfinite(best):
        raise ParameterError("all trials degenerate; " + "; ".join(skipped))
    return best


@dataclass(frozen=True)
class CrossPoint:
    """A field with nehari < 0 and virial = 0 (within tolerance), built by
    amplitude scaling followed by a root search in the dilation."""

    field: RadialField
    lam: float
    mu: float
    action: float
    nehari: float
    virial: float


def _dilated_virial(mu, interp, grid, params):
    return virial(_dilate(interp, grid, mu, params), params)


def construct_cross_point(phi: RadialField, params: ModelParams,
                          lam: float) -> CrossPoint:
    """Constructive cross-constrained point from a stationary profile.

    Amplitude-scale phi past 1 (making both sign functionals negative),
    verify the dilation coefficient is positive, bracket the root of the
    virial in the dilation mu <= 64 and find it by Brent's method; the point
    is accepted when |virial| < 1e-8 min(||grad v||^2, 1), v = lam phi.
    """
    if lam <= 1.0:
        raise ParameterError("need an amplitude factor lam > 1")
    v = scale_amplitude(phi, lam)
    m = _field_moments(v, params)
    gamma, omega = params.gamma, params.require_omega()
    c_I = virial_coefficient(params)
    if m.nehari(gamma, omega) >= 0.0 or m.virial(gamma, c_I) >= 0.0:
        raise ParameterError(
            f"amplitude scaling lam = {lam} did not enter the negative cone")
    if m.G - c_I * m.P <= 0.0:
        raise ParameterError(
            f"dilation coefficient not positive at lam = {lam}")

    # absolute cap keeps the accepted points on the constraint even for
    # large profiles
    tol = min(1e-8 * m.G, 1e-8)
    interp = ProfileInterpolant(v, singular_exponent=2.0 - params.b)
    # interp goes through args: brentq wraps its callable in a self-referencing
    # function, so a closure over interp would keep it alive until gc runs
    args = (interp, v.grid, params)
    hi = 1.5
    while _dilated_virial(hi, *args) < 0.0:
        hi *= 2.0
        if hi > 64.0:
            raise ParameterError("dilation bracket failure")
    mu = brentq(_dilated_virial, 1.0, hi, args=args, xtol=1e-15, rtol=1e-15,
                disp=False)
    point = _dilate(interp, v.grid, mu, params)
    m = _field_moments(point, params)
    I_val, K_val = m.virial(gamma, c_I), m.nehari(gamma, omega)
    if abs(I_val) >= tol or K_val >= 0.0:
        raise ParameterError(
            f"cross point construction failed: virial {I_val}, nehari {K_val}")
    return CrossPoint(field=point, lam=lam, mu=mu,
                      action=m.action(params.p, gamma, omega), nehari=K_val,
                      virial=I_val)


def estimate_d_n_upper(phi: RadialField, params: ModelParams, lambdas=None):
    """Upper bound for the cross-constrained level: least action over
    constructed cross points.  Returns (value, points).

    Default amplitude factors are spread inside (1, lam*), the window on
    which the dilation coefficient stays positive: lam* = (||grad phi||^2 /
    (c_I P(phi)))^(1/(p-1)), above 1 for any phi with vanishing virial.
    When no factor works, the ParameterError gives each factor's reason.
    """
    if lambdas is None:
        m = _field_moments(phi, params)
        lam_star = ((m.G / (virial_coefficient(params) * m.P))
                    ** (1.0 / (params.p - 1.0)))
        lambdas = [1.0 + f * (lam_star - 1.0)
                   for f in (0.05, 0.15, 0.3, 0.5, 0.7, 0.85)]
    points, skipped = [], []
    for lam in lambdas:
        try:
            points.append(construct_cross_point(phi, params, lam))
        except ParameterError as exc:
            skipped.append(f"lambda={lam}: {exc}")
    if not points:
        raise ParameterError("no cross point could be constructed; "
                             + "; ".join(skipped))
    return min(pt.action for pt in points), points


@dataclass(frozen=True)
class LevelEstimates:
    """Variational levels: least nehari action, cross-constrained upper
    bound, and their minimum d (the admissible-action threshold)."""

    d_omega: float
    d_n_upper: float
    d: float
    trial_count: int

    def as_dict(self) -> dict:
        return asdict(self)

    def to_csv(self, path, metadata: dict | None = None) -> None:
        row = (self.d_omega, self.d_n_upper, self.d, self.trial_count)
        _write_table(path, "d_omega,d_n_upper,d,trial_count", [row], metadata)


def estimate_levels(params: ModelParams, grid: RadialGrid,
                    reference: GroundStateResult | RadialField | None = None,
                    n_random: int = 40, seed: int = 0) -> LevelEstimates:
    """Estimate both variational levels from one stationary profile."""
    if params.criticality == "subcritical":
        raise ParameterError("levels are probed at critical or larger powers")
    if reference is None:
        reference = solve_bound_state(params, grid)
    prof = reference.profile if isinstance(reference, GroundStateResult) else reference
    d_omega = estimate_d_omega(params, grid, reference=prof,
                               n_random=n_random, seed=seed)
    d_n_upper, points = estimate_d_n_upper(prof, params)
    return LevelEstimates(d_omega=d_omega, d_n_upper=d_n_upper,
                          d=min(d_omega, d_n_upper),
                          trial_count=n_random + 6 + len(points))


# ------------------------------------------------------------------- sweeps

@dataclass(frozen=True)
class SweepRow:
    c: float
    lam: float
    outcome: str                    # "global_bounded" | "blowup" | "failed"
    t_blow: float | None
    t_pred: float | None
    max_grad_ratio: float           # blowup: at the flag, rounding-sensitive
    reason: str | None = None       # "<ExcType>: <message>" of a failed row

    def as_dict(self) -> dict:
        return {"c": self.c, "lambda": self.lam, "outcome": self.outcome,
                "t_blow": self.t_blow, "t_pred": self.t_pred,
                "max_grad_ratio": self.max_grad_ratio, "reason": self.reason}


@dataclass
class SweepResult:
    rows: list

    def to_csv(self, path, metadata: dict | None = None) -> None:
        _write_table(path, "c,lambda,outcome,t_blow,t_pred,max_grad_ratio",
                     [(row.c, row.lam, row.outcome, row.t_blow, row.t_pred,
                       row.max_grad_ratio) for row in self.rows], metadata)

    def as_dict(self) -> dict:
        return {"rows": [row.as_dict() for row in self.rows]}


def _scaled_soliton(soliton: RadialField, grid: RadialGrid,
                    params: ModelParams, c: float, lam: float) -> RadialField:
    """c lam^(N/2) Q(lam x) on grid, with the r^(2-b) origin fit."""
    interp = ProfileInterpolant(soliton, singular_exponent=2.0 - params.b)
    return _rescale(interp, grid, lam, c * lam ** (grid.dim / 2.0))


def _sweep_row(soliton, grid, params, cfg, criterion_tol, c, lam) -> SweepRow:
    u0 = _scaled_soliton(soliton, grid, params, c, lam)
    t_pred = predict_collapse_time(u0, params, coupling=cfg.coupling,
                                   criterion_tol=criterion_tol)
    res = evolve(u0, params, cfg)
    ratio = float(np.max(res.series.grad_sq) / res.series.grad_sq[0])
    outcome = "blowup" if res.blowup_time is not None else "global_bounded"
    return SweepRow(c=c, lam=lam, outcome=outcome, t_blow=res.blowup_time,
                    t_pred=t_pred, max_grad_ratio=ratio)


def _failed_row(c, lam, exc) -> SweepRow:
    return SweepRow(c, lam, "failed", None, None, float("nan"),
                    reason=f"{type(exc).__name__}: {exc}")


def threshold_sweep(soliton: RadialField, params: ModelParams,
                    grid: RadialGrid, c_values, lambda_values,
                    cfg: EvolveConfig, criterion_tol: float = 1e-3,
                    workers: int = 1) -> SweepResult:
    """Evolve c lam^(N/2) Q(lam x) over a grid of (c, lam).

    Rows record boundedness or the blow-up flag together with the predicted
    vanishing time of the variance sinusoid; per-row failures are recorded
    as outcome "failed" with the exception in the row's reason and do not
    stop the sweep.  At most min(workers, rows, cpu count) processes run;
    with one the sweep runs in this process.
    """
    params.require_critical("the threshold sweep")
    jobs = [(float(c), float(lam)) for c in c_values for lam in lambda_values]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    rows = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sweep_row, soliton, grid, params, cfg,
                                   criterion_tol, c, lam) for c, lam in jobs]
            for (c, lam), fut in zip(jobs, futures):
                try:
                    rows.append(fut.result())
                except Exception as exc:
                    rows.append(_failed_row(c, lam, exc))
    else:
        for c, lam in jobs:
            try:
                rows.append(_sweep_row(soliton, grid, params, cfg,
                                       criterion_tol, c, lam))
            except Exception as exc:
                rows.append(_failed_row(c, lam, exc))
    return SweepResult(rows=rows)


# ---------------------------------------------------------------- dichotomy

@dataclass
class DichotomyResult:
    initial_label: SetLabel
    labels: list                    # (time, SetLabel) along the flow
    blowup_time: float | None
    hnorm_bound: float | None       # 2 d (p+1)/(p-1), checked for K_PLUS
    hnorm_max: float
    consistent: bool
    detail: str


def dichotomy_run(u0: RadialField, params: ModelParams, d: float,
                  cfg: EvolveConfig, sample_times=(0.5, 1.0, 2.0)) -> DichotomyResult:
    """Classify u0, evolve it, and test the predicted dichotomy.

    Requires action(u0) < d (raises HypothesisError otherwise).  Checks
    label invariance at the sample times; for the negative-cone label the
    run must raise the blow-up flag, for the other labels it must stay
    bounded with the squared H norm below 2 d (p+1)/(p-1) in the
    nehari-negative case.
    """
    S0 = action(u0, params)
    if S0 >= d:
        raise HypothesisError(
            f"outside hypothesis: action {S0} is not below d = {d}")
    label0 = classify(u0, params, d)
    times = tuple(ts for ts in sample_times if ts <= cfg.t_end)
    res = evolve(u0, params, replace(cfg, snapshot_times=times))
    labels = []
    hmax = 0.0
    for ts, field in res.snapshots:
        if res.blowup_time is not None and ts >= res.blowup_time:
            continue
        if not any(abs(ts - want) <= 1e-9 for want in times):
            continue
        labels.append((ts, classify(field, params, d)))
        hmax = max(hmax, h_omega_norm_sq(field, params))
    invariant = all(lab == label0 for _, lab in labels)
    bound = None
    detail = ""
    if label0 == SetLabel.K_MINUS:
        consistent = res.blowup_time is not None and invariant
        if res.blowup_time is None:
            detail = "negative-cone state did not raise the blow-up flag"
    elif label0 in (SetLabel.R_PLUS, SetLabel.K_PLUS):
        consistent = res.blowup_time is None and invariant
        if label0 == SetLabel.K_PLUS:
            bound = 2.0 * d * (params.p + 1.0) / (params.p - 1.0)
            if hmax >= bound:
                consistent = False
                detail = f"H norm {hmax} reached the global-existence bound {bound}"
        if res.blowup_time is not None:
            detail = "bounded-label state raised the blow-up flag"
    else:
        consistent = invariant
    if not invariant:
        detail = (detail + "; " if detail else "") + "label changed along the flow"
    return DichotomyResult(initial_label=label0, labels=labels,
                           blowup_time=res.blowup_time, hnorm_bound=bound,
                           hnorm_max=hmax, consistent=consistent, detail=detail)


# ---------------------------------------------------------------- stability

@dataclass
class StabilityResult:
    sup_distance: float
    initial_distance: float
    times: np.ndarray
    distances: np.ndarray
    blowup_time: float | None
    ground: GroundStateResult


def _aligned_sigma_distance(u: RadialField, phi: RadialField) -> float:
    """Sigma distance to the phase orbit of phi: min over global phase."""
    inner = sigma_inner(u, phi)
    d2 = sigma_norm_sq(u) + sigma_norm_sq(phi) - 2.0 * abs(inner)
    return math.sqrt(max(d2, 0.0))


def stability_run(params: ModelParams, grid: RadialGrid, q: float,
                  eps: float, horizon: float, dt: float,
                  n_samples: int = 40, seed: int = 0) -> StabilityResult:
    """Perturb the mass-q minimizer by eps in the Sigma norm and evolve.

    The perturbed state is renormalized back to mass q; the returned
    distances are Sigma distances to the phase orbit of the minimizer at
    the sampled times, whose supremum quantifies orbital stability over the
    horizon.
    """
    ground = constrained_minimizer(q, params, grid)
    phi = ground.profile
    rng = np.random.default_rng(seed)
    if eps > 0.0:
        bump = random_trial_field(grid, rng, complex_part=True)
        bump_norm = math.sqrt(sigma_norm_sq(bump))
        u0 = RadialField(grid, phi.values + eps / bump_norm * bump.values)
        u0 = scale_amplitude(u0, math.sqrt(q / mass(u0)))
    else:
        u0 = phi
    times = np.linspace(0.0, horizon, n_samples + 1)[1:]
    cfg = EvolveConfig(dt=dt, t_end=horizon, record_every=1000,
                       snapshot_times=tuple(times))
    res = evolve(u0, params, cfg)
    dists = []
    kept = []
    for ts, field in res.snapshots:
        if not any(abs(ts - want) <= 1e-9 for want in times):
            continue
        kept.append(ts)
        dists.append(_aligned_sigma_distance(field, phi))
    dists = np.asarray(dists)
    return StabilityResult(
        sup_distance=float(np.max(dists)) if len(dists) else 0.0,
        initial_distance=_aligned_sigma_distance(u0, phi),
        times=np.asarray(kept), distances=dists,
        blowup_time=res.blowup_time, ground=ground)


# --------------------------------------------------------------------- lens

def lens_check(params: ModelParams, grid: RadialGrid, free_rmax: float,
               dt: float, t_max: float, n_check: int, amplitude: float,
               width: float):
    """Lens map of a free run against the direct trapped run (critical
    power, t_max below the caustic time).

    Evolves amplitude exp(-r^2 / (2 width^2)) freely on a mesh of radius
    free_rmax (same h) and trapped on grid.  Returns the n_check times
    evenly spaced in (0, t_max], the L2 distances of the lens-mapped free
    run from the trapped run there, and the sup error of lens_inverse after
    lens_forward of the free state at the last time.
    """
    gamma = params.gamma
    checks = [float(t) for t in np.linspace(0.0, t_max, n_check + 1)[1:]]
    free_times = [math.tan(2.0 * gamma * t) / (2.0 * gamma) for t in checks]

    def run(g, times, free):
        # records only at the check times; recording leaves the state alone
        u0 = RadialField(g, amplitude * np.exp(-g.r ** 2 / (2.0 * width ** 2)))
        cfg = EvolveConfig(dt=dt, t_end=times[-1], free_equation=free,
                           record_every=10 ** 9, snapshot_times=tuple(times),
                           blowup_gradient_factor=1e9)
        return evolve(u0, params, cfg).snapshots

    free_grid = RadialGrid(h=grid.h, rmax=free_rmax, dim=params.dim)
    sampler = snapshot_sampler(run(free_grid, free_times, True))
    trapped = run(grid, checks, False)
    mismatches = [
        math.sqrt(mass(lens_forward(sampler, t, params, grid)
                       - next(f for ts, f in trapped if abs(ts - t) <= 1e-9)))
        for t in checks]
    mapped = ProfileInterpolant(lens_forward(sampler, checks[-1], params, grid))
    back = lens_inverse(lambda r, s: mapped(r), free_times[-1], params, grid)
    free_last = np.asarray(sampler(grid.r, free_times[-1]), dtype=complex)
    return checks, mismatches, float(np.max(np.abs(back.values - free_last)))
