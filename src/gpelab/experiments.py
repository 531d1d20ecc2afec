"""Orchestrated reproductions: threshold sweeps, variational level estimates,
sign-set dichotomy runs, scaling families and stability experiments."""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .closedforms import (ProfileInterpolant, lens_forward, lens_inverse,
                          require_before_caustic, snapshot_sampler)
from .core import (ConvergenceError, ModelParams, ParameterError,
                   PreconditionError, RadialField, RadialGrid, _write_table,
                   mass, require_count, sigma_inner, sigma_norm_sq)
from .evolve import EvolveConfig, evolve, predict_collapse_time
from .functionals import (SetLabel, _Moments, _field_moments, _moments,
                          action, classify, h_omega_norm_sq,
                          virial_coefficient)
from .groundstate import (GroundStateResult, _coarse_mesh, _nehari_descent,
                          _nehari_scale, _prolong, _state,
                          constrained_minimizer, solve_bound_state)

__all__ = [
    "HypothesisError", "SweepRow", "SweepResult", "LevelEstimates",
    "CrossPoint", "DichotomyResult", "StabilityResult",
    "scale_amplitude", "scale_mass_preserving", "scale_dilation",
    "scale_potential_preserving",
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
    """u -> mu^((2-b)/(p-1)) u(mu x), the dilation whose kinetic term
    ||grad u||^2 scales like mu^a, a = (4 - 2b - (N-2)(p-1)) / (p-1):
    positive on the admissible range and zero exactly at the upper
    admissible power."""
    interp = ProfileInterpolant(u, singular_exponent=2.0 - params.b)
    return _dilate(interp, u.grid, mu, params)


def scale_potential_preserving(u: RadialField, mu: float,
                               params: ModelParams) -> RadialField:
    """u -> mu^((N-b)/(p+1)) u(mu x); preserves the potential term P."""
    interp = ProfileInterpolant(u, singular_exponent=2.0 - params.b)
    return _rescale(interp, u.grid, mu,
                    mu ** ((params.dim - params.b) / (params.p + 1.0)))


# ------------------------------------------------------------ level estimates

def nehari_project(u: RadialField, params: ModelParams):
    """Scale u onto the zero set of the nehari functional.

    Returns (lam0 u, lam0) with lam0 = (||u||_H^2 / P(u))^(1/(p-1)); fields
    already on the zero set are fixed points (lam0 = 1).  Raises
    ParameterError where ||u||_H^2 or P is not positive, ConvergenceError
    where lam0 u would leave the floating-point range.
    """
    m = _field_moments(u, params)
    H = m.h_norm_sq(params.gamma, params.require_omega())
    if not (H > 0.0 and m.P > 0.0):
        raise ParameterError(
            f"no Nehari projection: ||u||_H^2 = {H:.3e}, P = {m.P:.3e}")
    lam0 = _nehari_scale(H, m.P, params.p)
    return scale_amplitude(u, lam0), lam0


def _trial_values(grid: RadialGrid, rng: np.random.Generator,
                  count: int = 1, complex_part: bool = False) -> np.ndarray:
    """Node values of count random smooth localized trials (mixtures of
    two or three Gaussian bumps) as the rows of a (count, n) block: real,
    complex with complex_part.  The generator gives, per trial, its bump
    count and then a, s and c of each bump (and, with complex_part, its
    chirp rate); every bump of the block is evaluated at once, and each
    trial's bumps are added in order.  A trial of two bumps has a third of
    amplitude 0, which adds 0 exactly, so every row is, bit for bit, its
    draw alone."""
    r2 = grid.r_pow(2.0)
    # per bump: a, s^2 (as the scalar formula squares s), c and the chirp
    # rate; an unused third bump is a = 0, s^2 = 1
    bumps = np.zeros((count, 3, 4))
    bumps[:, :, 1] = 1.0
    for trial in bumps:
        for bump in trial[:rng.integers(2, 4)]:
            a, s, c = (rng.uniform(0.3, 2.0), rng.uniform(0.6, 2.0),
                       rng.uniform(0.0, 1.5))
            bump[:3] = a, s ** 2, c
            if complex_part:
                bump[3] = rng.uniform(-0.5, 0.5)
    a, s2, c, chirp = bumps[:, :, :, None].transpose(2, 0, 1, 3)
    values = a * (1.0 + c * r2 / s2) * np.exp(-r2 / (2.0 * s2))
    if complex_part:
        values = values * np.exp(1j * chirp * r2)
    # each trial's bumps in order, added to 0 as to an array of zeros
    return sum(values.swapaxes(0, 1))


def random_trial_field(grid: RadialGrid, rng: np.random.Generator,
                       complex_part: bool = False) -> RadialField:
    """Random smooth localized trial field (mixture of Gaussian bumps)."""
    return RadialField(grid, _trial_values(grid, rng, 1, complex_part)[0])


# Halvings of h down to the mesh the random level trials are drawn and
# ranked on (_ladder)
_LADDER_DEPTH = 4


def _ladder(grid: RadialGrid) -> list:
    """grid and the meshes below it, each groundstate._coarse_mesh of the one
    above and kept there, down to _LADDER_DEPTH halvings of h; it stops
    early at a mesh that takes no coarse stage (an odd node count or under
    8 nodes), so a grid with an odd node count is its own ladder."""
    meshes = [grid]
    while len(meshes) <= _LADDER_DEPTH:
        coarse = _coarse_mesh(meshes[-1])
        if coarse is meshes[-1]:
            break
        meshes.append(coarse)
    return meshes


def _trial_pool(grid: RadialGrid, reference: RadialField | None,
                n_random: int, seed: int) -> list:
    """estimate_d_omega's trial pool as (node values, mesh) pairs: with a
    reference, its real part on grid, then n_random random trials drawn
    from one generator on the last mesh of _ladder(grid), of spacing 16h
    where grid halves four times; the callers have checked n_random."""
    pool = []
    if reference is not None:
        grid.compatible(reference.grid)
        pool.append((reference.values.real, grid))
    bottom = _ladder(grid)[-1]
    draws = _trial_values(bottom, np.random.default_rng(seed), n_random)
    return pool + [(trial, bottom) for trial in draws]


def _least_action(params: ModelParams, grid: RadialGrid, pool) -> float:
    """Least action of the trials of pool finished on grid by the Nehari
    descent, one factorization per mesh and one block per mesh and stage;
    see estimate_d_omega."""
    b, p, gamma = params.b, params.p, params.gamma
    omega = params.require_omega()
    ladder = _ladder(grid)
    descents = {}

    def descend(trials, mesh):
        # each trial's outcome of the Nehari descent on mesh, in one block
        if not trials:
            return []
        if mesh not in descents:
            descents[mesh] = _nehari_descent(
                omega + gamma ** 2 * mesh.r_pow(2.0), mesh, b, p)
        return descents[mesh](trials)

    def score(v, mesh):
        return _moments(v, mesh, b, p).action(p, gamma, omega)

    finished, skipped = [], []

    def finish(indices, trials):
        # descend trials on grid as one block; keep each action or reason
        for i, out in zip(indices, descend(trials, grid)):
            if isinstance(out, ConvergenceError):
                skipped.append(f"trial {i}: {out}")
            else:
                finished.append(score(out[0], grid))

    on_grid = [i for i, (_, mesh) in enumerate(pool) if mesh is grid]
    finish(on_grid, [pool[i][0] for i in on_grid])
    # the random trials descend as one block on the bottom mesh and are
    # ranked there by the moments of the block of their states; a draw
    # whose descent raises goes on from its draw, interpolated to grid
    bottom = ladder[-1]
    drawn = [i for i, (_, mesh) in enumerate(pool) if mesh is not grid]
    outcomes = descend([pool[i][0] for i in drawn], bottom)
    raised = [i for i, out in zip(drawn, outcomes)
              if isinstance(out, ConvergenceError)]
    states = [(i, out[0]) for i, out in zip(drawn, outcomes)
              if i not in raised]
    block = np.reshape([v for _, v in states], (len(states), bottom.n))
    ranked = [(m.action(p, gamma, omega), i, v) for m, (i, v)
              in zip(_moments(block, bottom, b, p), states)]
    starts = [pool[i][0] for i in raised]
    for _ in ladder[1:]:
        starts = [_prolong(trial) for trial in starts]
    finish(raised, starts)
    # the trial of least action on the bottom mesh alone climbs to grid,
    # the next-ranked one where that climb raises; ties go to the lower
    # pool index
    for _, i, v in sorted(ranked, key=lambda entry: entry[:2]):
        try:
            for mesh in reversed(ladder[:-1]):
                v = _state(descend([_prolong(v)], mesh)[0])
        except ConvergenceError as exc:
            skipped.append(f"trial {i}: {exc}")
            continue
        finished.append(score(v, grid))
        break
    best = min(finished, default=math.inf)
    if not math.isfinite(best):
        raise ParameterError("all trials degenerate; " + "; ".join(skipped))
    return best


def estimate_d_omega(params: ModelParams, grid: RadialGrid,
                     reference: RadialField | None = None,
                     n_random: int = 40, seed: int = 0) -> float:
    """Least action on the nehari zero set, estimated by projected search.

    Every trial is refined by the Nehari descent of the ground-state solve,
    with its stopping rule; the descent projects each state onto the zero
    set once, so its first state is the trial's projection.  The trials
    are drawn as real node arrays.  The random trials are drawn, as the
    rows of one block, on the mesh of spacing 16h, four halvings of grid
    by groundstate._coarse_mesh (fewer where a mesh takes no coarse stage,
    none on a grid with an odd node count).  They descend there together,
    as one block that steps in lock step with one solve per step, each
    trial bit for bit as it would descend alone, and each is ranked by
    its action, from the moments of the block of their states.  Every
    trial descends to the same least-action state, so only the
    best-ranked one is carried up, by nested iteration (Brandt, Math.
    Comp. 31, 1977): groundstate._prolong interpolates it to the mesh
    above, where it is refined again, up to grid.  Where that
    climb raises, its reason is kept and the next-ranked trial climbs.
    Ties go to the trial drawn first.  A draw that the block descent
    cannot project goes on from its draw, interpolated to grid.  The
    descent operator is factored once per mesh and shared by every trial
    on it.  The reported value is the smallest action of a trial finished
    on grid; a trial the descent cannot project there is skipped with its
    reason, and where no trial is finished the estimate raises
    ParameterError with every reason.  With reference set (a computed
    minimizer) the reference joins the pool alone, refined on grid, so
    the estimate matches its action, and the random trials take the
    generator's first draws.  n_random is a count, at least 1 without a
    reference (PreconditionError otherwise).
    """
    require_count("n_random", n_random, 0 if reference is not None else 1)
    return _least_action(params, grid,
                         _trial_pool(grid, reference, n_random, seed))


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


def _virial_root(m: _Moments, gamma: float, c_I: float) -> float:
    """The dilation mu at which the virial of mu^a v(mu r), a = (2-b)/(p-1),
    vanishes under the exact scaling laws, from v's moments m with G - c_I P
    > 0 (see construct_cross_point)."""
    return (gamma ** 2 * m.V / (m.G - c_I * m.P)) ** 0.25


def _law_action(m: _Moments, params: ModelParams, lam: float) -> float:
    """Action of the cross point of lam phi under the exact scaling laws,
    from phi's moments m: v = lam phi has moments lam^2 (M, G, V) and
    lam^(p+1) P, and its dilation by _virial_root scales G and P by
    mu^(2a+2-N), V by mu^(2a-2-N) and M by mu^(2a-N).  +inf where the
    dilation coefficient G - c_I P of v is not positive or the closed form
    leaves the floating-point range, so such a factor ranks last."""
    p, gamma, c_I = params.p, params.gamma, virial_coefficient(params)
    try:
        v = _Moments(M=lam ** 2 * m.M, G=lam ** 2 * m.G, V=lam ** 2 * m.V,
                     P=lam ** (p + 1.0) * m.P)
        if not v.G - c_I * v.P > 0.0:
            return math.inf
        mu = _virial_root(v, gamma, c_I)
        s = mu ** (2.0 * (2.0 - params.b) / (p - 1.0) - params.dim)
        S = _Moments(M=s * v.M, G=s * mu ** 2 * v.G, V=s / mu ** 2 * v.V,
                     P=s * mu ** 2 * v.P).action(p, gamma,
                                                  params.require_omega())
    except ArithmeticError:
        return math.inf
    return S if math.isfinite(S) else math.inf


def construct_cross_point(phi: RadialField, params: ModelParams,
                          lam: float) -> CrossPoint:
    """Constructive cross-constrained point from a stationary profile.

    Amplitude-scale phi past 1, so that both sign functionals of v = lam phi
    are negative, check that the dilation coefficient G - c_I P of v is
    positive, then find the dilation mu of v at which the virial vanishes.

    Under u_mu(r) = mu^a v(mu r), a = (2-b)/(p-1), the moments G and P scale
    as mu^(2a+2-N) and V as mu^(2a-2-N), so I(mu) = mu^(2a+2-N) ((G - c_I P)
    - gamma^2 V mu^(-4)): increasing, with root (gamma^2 V / (G - c_I
    P))^(1/4) from v's own moments.  That root is the first probe; on the
    mesh it is off by the discretization (at most 4.4e-6 relative at the
    default b = 0.5).  Each later probe is the secant through the last two
    (mu, I) pairs, starting from (1, I(v)); where the secant leaves the sign
    bracket it is the bracket's midpoint, or twice the last mu while no
    probe has given I > 0.  The search stops once |I| <= eps (G + gamma^2
    V + c_I P), the rounding of I's terms, from the probe's own moments, or
    when the next step would move mu by at most 1e-15 mu, and the last
    probe is the point; a probe beyond mu = 64 or 100 probes without a stop
    raise.  The point is accepted when |virial| < min(1e-8 ||grad v||^2,
    1e-8) and nehari < 0.
    """
    if lam <= 1.0:
        raise PreconditionError("need an amplitude factor lam > 1")
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
    lo, hi = 1.0, math.inf
    mu_prev, I_prev = lo, m.virial(gamma, c_I)
    mu = _virial_root(m, gamma, c_I)
    for _ in range(100):
        if mu > 64.0:
            raise ParameterError("dilation bracket failure")
        point = _dilate(interp, v.grid, mu, params)
        m = _field_moments(point, params)
        I_val = m.virial(gamma, c_I)
        scale = m.G + gamma ** 2 * m.V + c_I * m.P
        if abs(I_val) <= np.finfo(float).eps * scale:
            break
        if I_val < 0.0:
            lo = mu
        else:
            hi = mu
        nxt = (mu - I_val * (mu - mu_prev) / (I_val - I_prev)
               if I_val != I_prev else math.nan)
        if not lo < nxt < hi:
            nxt = 2.0 * mu if hi == math.inf else 0.5 * (lo + hi)
        if abs(nxt - mu) <= 1e-15 * mu:
            break
        mu_prev, I_prev, mu = mu, I_val, nxt
    else:
        raise ParameterError(f"dilation search did not settle near mu = {mu}")
    K_val = m.nehari(gamma, omega)
    if abs(I_val) >= tol or K_val >= 0.0:
        raise ParameterError(
            f"cross point construction failed: virial {I_val}, nehari {K_val}")
    return CrossPoint(field=point, lam=lam, mu=mu,
                      action=m.action(params.p, gamma, omega), nehari=K_val,
                      virial=I_val)


# Where in the amplitude window (1, lam*) estimate_d_n_upper builds points.
_CROSS_FRACTIONS = (0.05, 0.15, 0.3, 0.5, 0.7, 0.85)


def estimate_d_n_upper(phi: RadialField, params: ModelParams):
    """Upper bound for the cross-constrained level: the action of the
    constructed cross point that the exact scaling laws rank least.
    Returns (value, points), points holding that one point.

    The amplitude factors 1 + f (lam* - 1), f in _CROSS_FRACTIONS, lie in
    (1, lam*), where the dilation coefficient stays positive: lam* =
    (||grad phi||^2 / (c_I P(phi)))^(1/(p-1)), above 1 for any phi with
    vanishing virial.  Each factor is ranked by _law_action, the action of
    its cross point in closed form from phi's four moments (ties to the
    smaller f), and construct_cross_point builds the point on the mesh at
    the least-ranked factor; where that build raises, the next-ranked one
    is built.  The value is that discrete point's action, so it stays an
    upper bound that the point certifies.  A phi with P(phi) = 0 (the zero
    field) has no lam* and raises a ParameterError that gives P.  An empty
    window (lam* <= 1) raises one ParameterError that gives lam*; when no
    factor works, it gives each factor's reason in _CROSS_FRACTIONS order.
    p must be at least the critical power (PreconditionError otherwise).
    """
    params.require_critical_or_larger("the cross-constrained level")
    m = _field_moments(phi, params)
    if not m.P > 0.0:
        raise ParameterError(
            f"no cross point: lam* needs P(phi) > 0, P = {m.P}")
    lam_star = ((m.G / (virial_coefficient(params) * m.P))
                ** (1.0 / (params.p - 1.0)))
    if lam_star <= 1.0:
        raise ParameterError(
            f"no cross point: the amplitude window (1, lam*) is empty, "
            f"lam* = {lam_star}")
    lambdas = [1.0 + f * (lam_star - 1.0) for f in _CROSS_FRACTIONS]
    skipped = {}
    for lam in sorted(lambdas, key=lambda lam: _law_action(m, params, lam)):
        try:
            point = construct_cross_point(phi, params, lam)
        except ParameterError as exc:
            skipped[lam] = f"lambda={lam}: {exc}"
            continue
        return point.action, [point]
    raise ParameterError("no cross point could be constructed; "
                         + "; ".join(skipped[lam] for lam in lambdas))


@dataclass(frozen=True)
class LevelEstimates:
    """Variational levels: least nehari action, cross-constrained upper
    bound, and their minimum d (the admissible-action threshold).
    trial_count counts the trials of d_omega's pool and the ranked
    amplitude factors of d_n_upper, one per _CROSS_FRACTIONS entry, though
    only the least-ranked cross point is built.  d_n_upper_lam is the
    amplitude factor lam of the cross point that set d_n_upper."""

    d_omega: float
    d_n_upper: float
    d: float
    trial_count: int
    d_n_upper_lam: float

    def as_dict(self) -> dict:
        return asdict(self)

    def to_csv(self, path, metadata: dict | None = None) -> None:
        row = (self.d_omega, self.d_n_upper, self.d, self.trial_count,
               self.d_n_upper_lam)
        _write_table(path, "d_omega,d_n_upper,d,trial_count,d_n_upper_lam",
                     [row], metadata)


def estimate_levels(params: ModelParams, grid: RadialGrid,
                    n_random: int = 40, seed: int = 0) -> LevelEstimates:
    """Estimate both variational levels from the bound state at omega."""
    params.require_critical_or_larger("the level estimates")
    require_count("n_random", n_random, 0)
    prof = solve_bound_state(params, grid).profile
    pool = _trial_pool(grid, prof, n_random, seed)
    d_omega = _least_action(params, grid, pool)
    d_n_upper, [point] = estimate_d_n_upper(prof, params)
    return LevelEstimates(d_omega=d_omega, d_n_upper=d_n_upper,
                          d=min(d_omega, d_n_upper),
                          trial_count=len(pool) + len(_CROSS_FRACTIONS),
                          d_n_upper_lam=point.lam)


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
    calls = [partial(_sweep_row, soliton, grid, params, cfg, criterion_tol,
                     c, lam) for c, lam in jobs]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            calls = [pool.submit(call).result for call in calls]
    rows = []
    for (c, lam), call in zip(jobs, calls):
        try:
            rows.append(call())
        except Exception as exc:
            rows.append(SweepRow(c, lam, "failed", None, None, float("nan"),
                                 reason=f"{type(exc).__name__}: {exc}"))
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
    nehari-negative case.  detail names every failed check, joined by
    "; ", and the run is consistent when there is none.
    """
    S0 = action(u0, params)
    if S0 >= d:
        raise HypothesisError(
            f"outside hypothesis: action {S0} is not below d = {d}")
    label0 = classify(u0, params, d)
    times = tuple(ts for ts in sample_times if ts <= cfg.t_end)
    res = evolve(u0, params, replace(cfg, snapshot_times=times))
    labels = [(ts, classify(field, params, d)) for ts, field in res.snapshots]
    hmax = max((h_omega_norm_sq(field, params) for _, field in res.snapshots),
               default=0.0)
    bound = None
    problems = []
    if label0 == SetLabel.K_MINUS:
        if res.blowup_time is None:
            problems.append("negative-cone state did not raise the blow-up flag")
    elif label0 in (SetLabel.R_PLUS, SetLabel.K_PLUS):
        if label0 == SetLabel.K_PLUS:
            bound = 2.0 * d * (params.p + 1.0) / (params.p - 1.0)
            if hmax >= bound:
                problems.append(
                    f"H norm {hmax} reached the global-existence bound {bound}")
        if res.blowup_time is not None:
            problems.append("bounded-label state raised the blow-up flag")
    if any(lab != label0 for _, lab in labels):
        problems.append("label changed along the flow")
    return DichotomyResult(initial_label=label0, labels=labels,
                           blowup_time=res.blowup_time, hnorm_bound=bound,
                           hnorm_max=hmax, consistent=not problems,
                           detail="; ".join(problems))


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
    dists = np.asarray([_aligned_sigma_distance(field, phi)
                        for _, field in res.snapshots])
    return StabilityResult(
        sup_distance=float(np.max(dists)) if len(dists) else 0.0,
        initial_distance=_aligned_sigma_distance(u0, phi),
        times=np.asarray([ts for ts, _ in res.snapshots]), distances=dists,
        blowup_time=res.blowup_time, ground=ground)


# --------------------------------------------------------------------- lens

def lens_check(params: ModelParams, grid: RadialGrid, free_rmax: float,
               dt: float, t_max: float, n_check: int, amplitude: float,
               width: float):
    """Lens map of a free run against the direct trapped run (critical
    power, 0 < t_max < the caustic time).

    Evolves amplitude exp(-r^2 / (2 width^2)) freely on a mesh of radius
    free_rmax (same h) and trapped on grid.  Returns the n_check times
    evenly spaced in (0, t_max], the L2 distances of the lens-mapped free
    run from the trapped run there, and the sup error of lens_inverse after
    lens_forward of the free state at the last time.  Every setting is
    checked, each bad one raising PreconditionError, before either run
    starts.
    """
    params.require_critical("the lens equivalence")
    require_before_caustic("the last lens check time", t_max, params)
    checks = tuple(float(t) for t in np.linspace(0.0, t_max, n_check + 1)[1:])
    g2 = 2.0 * params.gamma
    free_times = tuple(math.tan(g2 * t) / g2 for t in checks)
    free_grid = RadialGrid(h=grid.h, rmax=free_rmax, dim=params.dim)
    (free_u0, free_cfg), (u0, cfg) = [
        (RadialField(g, amplitude * np.exp(-g.r ** 2 / (2.0 * width ** 2))),
         EvolveConfig(dt=dt, t_end=times[-1], free_equation=free,
                      record_every=10 ** 9, snapshot_times=times,
                      blowup_gradient_factor=1e9))
        for g, times, free in ((free_grid, free_times, True),
                               (grid, checks, False))]
    cfg.require_trap_resolved(params)
    # records only at the check times; recording leaves the state alone
    sampler = snapshot_sampler(evolve(free_u0, params, free_cfg).snapshots)
    trapped = evolve(u0, params, cfg).snapshots
    checks, free_last = [t for t, _ in trapped], free_times[-1]
    mismatches = [math.sqrt(mass(lens_forward(sampler, t, params, grid) - f))
                  for t, f in trapped]
    mapped = ProfileInterpolant(lens_forward(sampler, checks[-1], params, grid))
    back = lens_inverse(lambda r, s: mapped(r), free_last, params, grid)
    free_state = np.asarray(sampler(grid.r, free_last), dtype=complex)
    return checks, mismatches, float(np.max(np.abs(back.values - free_state)))
