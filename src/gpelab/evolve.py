"""Time integration of the trapped equation and of its free-space variant,
with conservation diagnostics, variance tracking and blow-up detection.

Scheme: Strang splitting.  The nonlinear flow is an exact phase rotation
that keeps |u|, so the closing half-phase of a step and the opening one of
the next merge into one phase, built from the tangent of the half angle;
the linear part -Lap + V(r) takes one Crank-Nicolson solve in Cayley form,
unitary for the self-adjoint discrete operator.  Fixed dt with an early
stop on the gradient-ratio blow-up flag; no adaptive collapse-chasing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (ModelParams, ParameterError, RadialField, _write_table,
                   factor_operator, nonlinear_rate, require_positive_finite,
                   variance_rate)
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
    the nonlinearity (0 = linear oscillator); snapshot_times, each in
    [0, t_end], are landed on exactly by shortening the final step of each
    segment.
    """

    dt: float
    t_end: float
    free_equation: bool = False
    blowup_gradient_factor: float = 1e3
    record_every: int = 1
    coupling: float = 1.0
    snapshot_times: tuple = ()

    def __post_init__(self):
        require_positive_finite("dt", self.dt)
        require_positive_finite("t_end", self.t_end)
        # a float would pass `step % record_every` on other steps than asked
        if not isinstance(self.record_every, numbers.Integral):
            raise ParameterError(
                f"record_every must be an integer, got {self.record_every!r}")
        if self.record_every < 1:
            raise ParameterError("record_every must be >= 1")
        if not 1.0 < self.blowup_gradient_factor < math.inf:
            raise ParameterError("blowup_gradient_factor must be finite and "
                                 f"exceed 1, got {self.blowup_gradient_factor}")
        if not math.isfinite(self.coupling):
            raise ParameterError(f"coupling must be finite, got {self.coupling}")
        for ts in self.snapshot_times:
            if not 0.0 <= ts <= self.t_end:
                raise ParameterError(f"snapshot time {ts} outside [0, t_end]")

    def require_trap_resolved(self, params: ModelParams) -> None:
        """Raise ParameterError unless dt resolves the trap period of the
        trapped equation, dt <= (pi / (2 gamma)) / 200; a free-equation
        run has no trap and passes."""
        dt_max = (math.pi / (2.0 * params.gamma)) / 200.0
        if not self.free_equation and self.dt > dt_max:
            raise ParameterError(
                f"dt = {self.dt} does not resolve the trap period; "
                f"need dt <= {dt_max}")


@dataclass
class DiagnosticSeries:
    """Recorded time series; f is the variance ||x u||^2 and f_prime its
    time derivative (core.variance_rate).  free_equation says which
    equation produced it; it is not written to the CSV."""

    t: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    grad_sq: np.ndarray
    f: np.ndarray
    f_prime: np.ndarray
    free_equation: bool = False

    def to_csv(self, path, metadata: dict | None = None) -> None:
        _write_table(path, "t,mass,energy,grad_sq,f,f_prime",
                     zip(self.t, self.mass, self.energy, self.grad_sq, self.f,
                         self.f_prime), metadata)


@dataclass
class EvolveResult:
    snapshots: list          # (requested time, RadialField), before the flag
    series: DiagnosticSeries
    final: RadialField       # the state where the run stopped
    final_time: float
    blowup_time: float | None = None


def _phase(eta, tau):
    """exp(i tau eta) for a real node array eta, by the half-angle form.

    With t = tan(tau eta / 2), exp(i tau eta) = (1 + i t) / (1 - i t), so
    with q = 2 / (1 + t^2) the real part is q - 1 and the imaginary part
    t q.  One tan costs a quarter of a cos and a sin in numpy's float64
    loops.  Against exp the error stays below 5e-16, and so does ||z| - 1|;
    z is finite for every finite angle, since no double is an odd multiple
    of pi/2 and t^2 stays far below overflow there.
    """
    t = np.tan(0.5 * tau * eta)
    q = 2.0 / (1.0 + t * t)
    z = np.empty(t.shape, complex)
    np.subtract(q, 1.0, out=z.real)
    np.multiply(t, q, out=z.imag)
    return z


def evolve(u0: RadialField, params: ModelParams, cfg: EvolveConfig) -> EvolveResult:
    """Integrate the initial field over [0, t_end].

    Returns the diagnostic series sampled every record_every steps (plus all
    segment boundaries), one snapshot per cfg.snapshot_times entry that the
    run reached before the blow-up flag, the state where it stopped, and
    the blow-up time when the squared gradient norm first exceeds
    blowup_gradient_factor times its initial value (the run stops there).
    """
    grid = u0.grid
    params.require_grid(grid)
    cfg.require_trap_resolved(params)

    gamma_eff = 0.0 if cfg.free_equation else params.gamma
    trap = gamma_eff ** 2 * grid.r_pow(2.0)
    b, p, coupling = params.b, params.p, cfg.coupling

    def cayley(dt):
        # (1 + A)^(-1)(1 - A) v = 2 (1 + A)^(-1) v - v, A = (i dt/2)(-Lap + V);
        # the stiff trap inside the solve avoids the [Lap, r^2] commutator
        solve = factor_operator(grid, trap, scale=0.5j * dt, shift=1.0)

        def step(v):
            y = solve(v)
            y *= 2.0
            y -= v
            return y
        return step

    def diag_row(t, vals):
        # one DiagnosticSeries row, in field order
        m = _moments(vals, grid, b, p)
        return (t, m.M, m.energy(p, gamma_eff, coupling), m.G,
                m.V, variance_rate(vals, grid))

    snap_times = {float(ts) for ts in cfg.snapshot_times}

    def schedule():
        # (dt, t, lands): steps of cfg.dt, and a shortened one where needed,
        # landing on each snapshot time and t_end; none for a zero-length span
        start = 0.0
        for target in sorted(snap_times | {cfg.t_end}):
            span = target - start
            nfull = int(math.floor(span / cfg.dt + 1e-9))
            dt_last = span - nfull * cfg.dt
            nsteps = nfull + 1 if dt_last > 1e-12 else nfull
            for k in range(1, nsteps):
                yield cfg.dt, start + k * cfg.dt, False
            if nsteps:
                yield (dt_last if nsteps > nfull else cfg.dt), target, True
                start = target

    # vals owes the coupling times the half-phase `pending` of eta; record
    # steps close a copy, so the trajectory does not depend on record_every
    vals = u0.values.astype(complex)
    closed, eta, pending = vals, nonlinear_rate(vals, grid, b, p), 0.0
    t, blowup_time = 0.0, None
    rows = [diag_row(0.0, vals)]
    snaps = [(0.0, RadialField(grid, vals))] if 0.0 in snap_times else []
    cn_full = cayley(cfg.dt)
    for step, (dt, t, lands) in enumerate(schedule(), 1):
        cn = cn_full if dt == cfg.dt else cayley(dt)
        # the pending closing half-phase merged with this step's opening
        vals = cn(vals * _phase(eta, coupling * (pending + 0.5 * dt)))
        eta, pending = nonlinear_rate(vals, grid, b, p), 0.5 * dt
        if step % cfg.record_every and not lands:
            continue
        closed = vals * _phase(eta, coupling * pending)
        if not np.all(np.isfinite(closed)):
            raise EvolveNaNError(rows[-1][0])
        rows.append(diag_row(t, closed))
        if rows[-1][3] > cfg.blowup_gradient_factor * rows[0][3]:
            blowup_time = t
            break
        if lands and t in snap_times:
            snaps.append((t, RadialField(grid, closed)))

    series = DiagnosticSeries(*np.array(rows).T,
                              free_equation=cfg.free_equation)
    return EvolveResult(snapshots=snaps, series=series,
                        final=RadialField(grid, closed), final_time=t,
                        blowup_time=blowup_time)


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
    absolute residual, which shrinks like the square of the spacing.  A
    free-equation series (no trap term) is rejected.
    """
    if series.free_equation:
        raise ParameterError("no variance law for a free equation series")
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
    params.require_critical("collapse-time prediction")
    if not math.isfinite(criterion_tol):
        raise ParameterError(
            f"criterion_tol must be finite, got {criterion_tol}")
    gamma = params.gamma
    m = _field_moments(u0, params)
    E0, f0 = m.energy(params.p, gamma, coupling), m.V
    fp0 = variance_rate(u0.values, u0.grid)
    if f0 - 2.0 * E0 / gamma ** 2 < -criterion_tol * abs(f0):
        return None
    amp, theta, mean = _sinusoid_from_initial(f0, fp0, E0, gamma)
    if amp == 0.0:
        return None if mean > 0.0 else 0.0
    base = math.asin(min(1.0, max(-1.0, -mean / amp)))
    cands = []
    for k in range(-2, 4):
        for x in (base + 2.0 * math.pi * k, math.pi - base + 2.0 * math.pi * k):
            t = (x - theta) / (4.0 * gamma)
            if t > 1e-12:
                cands.append(t)
    return min(cands)
