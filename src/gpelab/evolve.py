"""Time integration of the trapped equation and of its free-space variant,
with conservation diagnostics, variance tracking and blow-up detection.

Scheme: Strang splitting.  The trap and the nonlinearity are pointwise
multipliers in the radial representation, so their half-step flow is an
exact phase rotation (exactly mass-preserving); only the Laplacian needs an
implicit midpoint (Crank-Nicolson) tridiagonal solve, which is unitary for
the self-adjoint discrete Laplacian.  Fixed dt with an early stop on the
gradient-ratio blow-up flag; no adaptive collapse-chasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ModelParams, ParameterError, RadialField, apply_laplacian,
                   factor_operator, variance_rate)
from .functionals import _field_moments, _Moments, _moments

__all__ = [
    "EvolveConfig", "DiagnosticSeries", "EvolveResult", "EvolveNaNError",
    "evolve", "virial_check", "predict_collapse_time",
]


class EvolveNaNError(RuntimeError):
    """The state became non-finite; carries the last valid time."""

    def __init__(self, t_last: float):
        super().__init__(f"non-finite state detected; last valid time {t_last}")
        self.t_last = t_last


@dataclass(frozen=True)
class EvolveConfig:
    """Time-stepping configuration.

    free_equation drops the trap term (free-space variant); coupling scales
    the nonlinearity (0 = linear oscillator); snapshot_times are landed on
    exactly by shortening the final step of each segment.
    """

    dt: float
    t_end: float
    free_equation: bool = False
    blowup_gradient_factor: float = 1e3
    record_every: int = 1
    coupling: float = 1.0
    snapshot_times: tuple = ()

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ParameterError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 < self.t_end < math.inf:
            raise ParameterError(
                f"t_end must be positive and finite, got {self.t_end}")
        if self.record_every < 1:
            raise ParameterError("record_every must be >= 1")
        if not 1.0 < self.blowup_gradient_factor < math.inf:
            raise ParameterError("blowup_gradient_factor must be finite and "
                                 f"exceed 1, got {self.blowup_gradient_factor}")
        if not math.isfinite(self.coupling):
            raise ParameterError(f"coupling must be finite, got {self.coupling}")


@dataclass
class DiagnosticSeries:
    """Recorded time series; f is the variance ||x u||^2 and f_prime its
    exact first variation 4 Im int conj(u) (grad u . x)."""

    t: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    grad_sq: np.ndarray
    f: np.ndarray
    f_prime: np.ndarray

    def to_csv(self, path, metadata: dict | None = None) -> None:
        lines = []
        for key, val in (metadata or {}).items():
            lines.append(f"# {key} = {val}")
        lines.append("t,mass,energy,grad_sq,f,f_prime")
        for row in zip(self.t, self.mass, self.energy, self.grad_sq,
                       self.f, self.f_prime):
            lines.append(",".join(f"{x:.17g}" for x in row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass
class EvolveResult:
    snapshots: list          # (time, RadialField) pairs
    series: DiagnosticSeries
    blowup_time: float | None = None

    @property
    def final(self) -> RadialField:
        return self.snapshots[-1][1]

    @property
    def final_time(self) -> float:
        return self.snapshots[-1][0]


def _diag_row(vals, grid, params, gamma_eff, coupling):
    m = _moments(vals, grid, params.b, params.p)
    E = m.energy(params.p, gamma_eff, coupling)
    return m.M, E, m.G, m.V, variance_rate(vals, grid)


def evolve(u0: RadialField, params: ModelParams, cfg: EvolveConfig) -> EvolveResult:
    """Integrate the initial field over [0, t_end].

    Returns the diagnostic series sampled every record_every steps (plus all
    segment boundaries), snapshots at cfg.snapshot_times and at the final
    time, and the blow-up time when the squared gradient norm first exceeds
    blowup_gradient_factor times its initial value (the run stops there).
    """
    grid = u0.grid
    if grid.dim != params.dim:
        raise ParameterError("grid dim differs from params dim")
    if not cfg.free_equation:
        dt_max = (math.pi / (2.0 * params.gamma)) / 200.0
        if cfg.dt > dt_max:
            raise ParameterError(
                f"dt = {cfg.dt} does not resolve the trap period; "
                f"need dt <= {dt_max}")
    for ts in cfg.snapshot_times:
        if not 0.0 <= ts <= cfg.t_end + 1e-12:
            raise ParameterError(f"snapshot time {ts} outside [0, t_end]")

    rb = grid.r_pow(-params.b)
    gamma_eff = 0.0 if cfg.free_equation else params.gamma
    trap = gamma_eff ** 2 * grid.r_pow(2.0)
    coupling = cfg.coupling

    def phase_half(vals, dt):
        # nonlinear multiplier coupling r^(-b)|u|^(p-1): exact phase flow
        eta = coupling * rb * np.abs(vals) ** (params.p - 1.0)
        return vals * np.exp(0.5j * dt * eta)

    def cn_solver(dt):
        # Crank-Nicolson for the linear part -Lap + V(r): V is diagonal, so
        # keeping the stiff trap inside the implicit solve (instead of the
        # split phase) removes the large [Lap, r^2] splitting commutator and
        # makes the linear-equation limit exactly a Cayley rotation
        solve = factor_operator(grid, trap, scale=0.5j * dt, shift=1.0)
        return lambda v: solve(v - 0.5j * dt * (-apply_laplacian(v, grid)
                                                + trap * v))

    boundaries = sorted({float(ts) for ts in cfg.snapshot_times} | {cfg.t_end})
    boundaries = [t for t in boundaries if t > 1e-14]

    vals = u0.values.astype(complex)
    t = 0.0
    rows = [(0.0, *_diag_row(vals, grid, params, gamma_eff, coupling))]
    snaps = []
    if any(abs(ts) <= 1e-14 for ts in cfg.snapshot_times):
        snaps.append((0.0, RadialField(grid, vals)))
    grad0 = rows[0][3]
    blowup_time = None

    cn_full = cn_solver(cfg.dt)
    step_count = 0
    stopped = False
    for t_target in boundaries:
        if stopped:
            break
        seg_start = t
        span = t_target - seg_start
        nfull = int(math.floor(span / cfg.dt + 1e-9))
        dt_last = span - nfull * cfg.dt
        nsteps = nfull + 1 if dt_last > 1e-12 else nfull
        for k in range(nsteps):
            if k < nfull:
                dt, cn = cfg.dt, cn_full
            else:
                dt, cn = dt_last, cn_solver(dt_last)
            vals = phase_half(vals, dt)
            vals = cn(vals)
            vals = phase_half(vals, dt)
            step_count += 1
            at_boundary = k == nsteps - 1
            t = t_target if at_boundary else seg_start + (k + 1) * cfg.dt
            if step_count % cfg.record_every == 0 or at_boundary:
                if not np.all(np.isfinite(vals)):
                    raise EvolveNaNError(rows[-1][0])
                row = (t, *_diag_row(vals, grid, params, gamma_eff, coupling))
                if row[0] > rows[-1][0] + 1e-14:
                    rows.append(row)
                if row[3] > cfg.blowup_gradient_factor * grad0:
                    blowup_time = t
                    stopped = True
                    break
        if not stopped and any(abs(t - ts) <= 1e-12 for ts in cfg.snapshot_times):
            snaps.append((t, RadialField(grid, vals)))

    if not snaps or abs(snaps[-1][0] - t) > 1e-12:
        snaps.append((t, RadialField(grid, vals)))

    arr = np.array(rows)
    series = DiagnosticSeries(t=arr[:, 0], mass=arr[:, 1], energy=arr[:, 2],
                              grad_sq=arr[:, 3], f=arr[:, 4], f_prime=arr[:, 5])
    return EvolveResult(snapshots=snaps, series=series, blowup_time=blowup_time)


def _sinusoid_from_initial(f0, fp0, E0, gamma):
    """Amplitude/phase of f(t) = r sin(4 gamma t + theta) + E0 / gamma^2."""
    mean = E0 / gamma ** 2
    rs = f0 - mean
    rc = fp0 / (4.0 * gamma)
    amp = math.hypot(rs, rc)
    theta = math.atan2(rs, rc)
    return amp, theta, mean


def virial_check(series: DiagnosticSeries, params: ModelParams) -> float:
    """Deviation of the recorded variance from the variance law.

    At the critical power the variance is an exact sinusoid determined by
    f(0), f'(0) and the conserved energy; the return value is
    max |f - fit| over the series.  Away from the critical power the full
    second-order identity is checked with centered second differences of f
    (uniform record spacing required); the return value is the maximum
    absolute residual, which shrinks like the square of the spacing.
    """
    if len(series.t) < 3:
        raise ParameterError("horizon too short to fit the variance law")
    gamma = params.gamma
    if params.is_critical:
        amp, theta, mean = _sinusoid_from_initial(
            series.f[0], series.f_prime[0], series.energy[0], gamma)
        fit = amp * np.sin(4.0 * gamma * series.t + theta) + mean
        return float(np.max(np.abs(series.f - fit)))
    dt = np.diff(series.t)
    if np.max(dt) - np.min(dt) > 1e-9 * np.max(dt):
        raise ParameterError("non-uniform record spacing; cannot difference f")
    step = float(dt[0])
    fdd = (series.f[2:] - 2.0 * series.f[1:-1] + series.f[:-2]) / step ** 2
    N, p, b = params.dim, params.p, params.b
    # P from E = E(coupling 0) - P/(p+1), exact under the quadrature
    linear = _Moments(series.mass, series.grad_sq, series.f, 0.0)
    P = (p + 1.0) * (linear.energy(p, gamma, 0.0) - series.energy)
    rhs = (16.0 * series.energy
           + 4.0 / (p + 1.0) * (N - N * p - 2.0 * b + 4.0) * P
           - 16.0 * gamma ** 2 * series.f)
    return float(np.max(np.abs(fdd - rhs[1:-1])))


def predict_collapse_time(u0: RadialField, params: ModelParams,
                          coupling: float = 1.0,
                          criterion_tol: float = 0.0) -> float | None:
    """First vanishing time of the variance sinusoid, when guaranteed.

    Returns the first positive root of r sin(4 gamma t + theta) + E/gamma^2
    when the collapse criterion f(0) >= 2 E(u0) / gamma^2 holds; returns
    None otherwise (the criterion is sufficient only, so None means
    inconclusive, not global existence).

    criterion_tol loosens the criterion test by a relative margin: states
    prepared exactly on the threshold sit on the criterion boundary within
    discretization error, and a small positive tolerance recovers their
    tangency time instead of returning None.
    """
    if not params.is_critical:
        raise ParameterError("collapse-time prediction needs the critical power")
    gamma = params.gamma
    m = _field_moments(u0, params)
    E0, f0 = m.energy(params.p, gamma, coupling), m.V
    fp0 = variance_rate(u0.values, u0.grid)
    if f0 - 2.0 * E0 / gamma ** 2 < -criterion_tol * abs(f0):
        return None
    amp, theta, mean = _sinusoid_from_initial(f0, fp0, E0, gamma)
    if amp == 0.0:
        return None if mean > 0.0 else 0.0
    s = -mean / amp
    s = min(1.0, max(-1.0, s))
    base = math.asin(s)
    cands = []
    for k in range(-2, 4):
        for x in (base + 2.0 * math.pi * k, math.pi - base + 2.0 * math.pi * k):
            t = (x - theta) / (4.0 * gamma)
            if t > 1e-12:
                cands.append(t)
    return min(cands)
