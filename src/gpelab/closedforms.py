"""Closed-form families and transforms: oscillator modes, the self-similar
blow-up family of the free equation, the lens transforms between the free
and trapped problems, and the minimal-mass blow-up solution.

Lens conventions, with c = cos(2 gamma t) and free time tau = tan(2 gamma t)
/ (2 gamma):

    forward (free -> trapped):
        u_L(x, t) = c^(-N/2) exp(-i gamma/2 |x|^2 tan 2 gamma t)
                    u(x / c, tau)
    inverse (trapped -> free), with s the free time and
    m = sqrt(1 + 4 (gamma s)^2):
        u_inv(x, s) = m^(-N/2) exp(+i gamma^2 s |x|^2 / m^2)
                      u(x / m, arctan(2 gamma s) / (2 gamma))

The inverse is the exact algebraic inverse of the forward map (composition
is the identity and both preserve the L^2 norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .core import (ModelParams, ParameterError, RadialField, RadialGrid,
                   factor_operator)

__all__ = [
    "CausticError", "BlowupFamilyParams", "ProfileInterpolant",
    "oscillator_mode", "discrete_oscillator_mode", "blowup_family",
    "lens_forward", "lens_inverse", "snapshot_sampler",
    "minimal_mass_solution", "minimal_mass_initial", "caustic_time",
]


class CausticError(ParameterError):
    """Requested time at or beyond the lens caustic cos(2 gamma t) = 0."""


def caustic_time(params: ModelParams) -> float:
    """First caustic pi / (4 gamma) of the trapped-side lens formulas."""
    return math.pi / (4.0 * params.gamma)


def oscillator_mode(params: ModelParams, grid: RadialGrid) -> RadialField:
    """Closed-form oscillator ground mode pi^(-N/2) exp(-gamma r^2 / 2).

    Normalization as written; callers renormalize as needed.  Its Rayleigh
    quotient is gamma N and it saturates the harmonic uncertainty
    inequality.
    """
    params.require_grid(grid)
    vals = np.pi ** (-params.dim / 2.0) * np.exp(-params.gamma * grid.r ** 2 / 2.0)
    return RadialField(grid, vals)


def discrete_oscillator_mode(params: ModelParams, grid: RadialGrid,
                             iters: int = 80) -> RadialField:
    """Lowest eigenvector of the discrete oscillator -Lap + gamma^2 r^2.

    Inverse iteration with a shift below gamma N; returned with unit mass.
    The sampled closed form differs from this by O(h^2), so invariance
    tests of the time integrator should use this discrete mode.
    """
    solve = factor_operator(grid, params.gamma ** 2 * grid.r_pow(2.0),
                            shift=-0.5 * params.gamma * params.dim)
    v = np.exp(-params.gamma * grid.r ** 2 / 2.0)
    for _ in range(iters):
        v = solve(v)
        v /= math.sqrt(float(np.sum(grid.weights * v * v)))
    if v[0] < 0.0:
        v = -v
    return RadialField(grid, v)


@dataclass(frozen=True)
class BlowupFamilyParams:
    """Parameters of the self-similar blow-up family and of the trapped
    minimal-mass solution built from it.

    beta scales the free family; lambda0 and the collapse time T
    (0 < T < pi / (4 gamma)) parametrize the trapped solution, with
    beta0 = lambda0 cos(2 gamma T) the induced free-family scale.
    """

    beta: float | None = None
    theta0: float = 0.0
    T: float | None = None
    lambda0: float | None = None

    def beta0(self, gamma: float) -> float:
        if self.lambda0 is None or self.T is None:
            raise ParameterError("beta0 needs lambda0 and T")
        return self.lambda0 * math.cos(2.0 * gamma * self.T)


class ProfileInterpolant:
    """Cubic interpolant of a radial profile, even through the origin and
    zero beyond the profile's truncation radius.

    Profiles of the b-singular problem bend like r^(2-b) at the origin,
    which no polynomial spline can represent; passing singular_exponent
    = 2 - b fits that component on the first nodes, interpolates the smooth
    remainder, and restores the singular part analytically on evaluation.
    """

    def __init__(self, field: RadialField,
                 singular_exponent: float | None = None):
        fit_nodes = 10
        r = field.grid.r
        vals = np.array(field.values)
        self._sing = None
        if singular_exponent is not None and field.grid.n >= 2 * fit_nodes:
            e = float(singular_exponent)
            rr = r[:fit_nodes]
            basis = np.stack([np.ones_like(rr), rr ** 2, rr ** e], axis=1)
            coeffs, *_ = np.linalg.lstsq(basis, vals[:fit_nodes], rcond=None)
            a = complex(coeffs[2])
            vals = vals - a * r ** e
            self._sing = (a, e)
        k = min(8, len(r))
        rr = np.concatenate([-r[:k][::-1], r])
        vv = np.concatenate([vals[:k][::-1], vals])
        self._real = CubicSpline(rr, vv.real)
        self._imag = CubicSpline(rr, vv.imag) if np.any(vals.imag) else None
        self.rmax = field.grid.rmax

    def __call__(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        inside = x <= self.rmax
        out = np.zeros(x.shape, dtype=complex)
        out[inside] = self._real(x[inside])
        if self._imag is not None:
            out[inside] = out[inside] + 1j * self._imag(x[inside])
        if self._sing is not None:
            a, e = self._sing
            out[inside] = out[inside] + a * x[inside] ** e
        return out


def _as_interp(profile, singular_exponent=None):
    if isinstance(profile, ProfileInterpolant):
        return profile
    return ProfileInterpolant(profile, singular_exponent=singular_exponent)


def blowup_family(fp: BlowupFamilyParams, t: float, soliton,
                  grid: RadialGrid | None = None,
                  params: ModelParams | None = None) -> RadialField:
    """Self-similar family of the free critical equation:
    exp(i theta0 + i beta^2/t - i r^2/(4t)) (beta/t)^(N/2) Q(beta r / t).

    Evaluated at reversed time t -> T - t it is the solution collapsing at
    T.  Mass-preserving in t; the gradient norm grows like 1/t toward
    t = 0.  soliton may be a RadialField or a prebuilt ProfileInterpolant;
    passing params resolves the origin exponent of the interpolation.
    """
    if fp.beta is None:
        raise ParameterError("blowup_family needs fp.beta")
    if t <= 0.0:
        raise ParameterError("the family is defined for t > 0")
    if grid is None:
        if isinstance(soliton, ProfileInterpolant):
            raise ParameterError("grid is required with a prebuilt interpolant")
        grid = soliton.grid
    exponent = None if params is None else 2.0 - params.b
    q = _as_interp(soliton, exponent)
    N = grid.dim
    ratio = fp.beta / t
    r = grid.r
    phase = fp.theta0 + fp.beta ** 2 / t - r ** 2 / (4.0 * t)
    vals = np.exp(1j * phase) * ratio ** (N / 2.0) * q(ratio * r)
    return RadialField(grid, vals)


def lens_forward(sampler, t: float, params: ModelParams,
                 grid: RadialGrid) -> RadialField:
    """Map a free-equation solution to the trapped side at trapped time t.

    sampler(r_array, tau) must return the free solution at free time tau.
    Valid while cos(2 gamma t) > 0; preserves the L^2 norm and sends t = 0
    to the identity.
    """
    gamma = params.gamma
    c = math.cos(2.0 * gamma * t)
    if c <= 1e-6:
        raise CausticError(f"cos(2 gamma t) = {c} at or beyond the caustic")
    tau = math.tan(2.0 * gamma * t) / (2.0 * gamma)
    r = grid.r
    inner = np.asarray(sampler(r / c, tau), dtype=complex)
    phase = np.exp(-0.5j * gamma * r ** 2 * math.tan(2.0 * gamma * t))
    vals = c ** (-grid.dim / 2.0) * phase * inner
    return RadialField(grid, vals)


def lens_inverse(sampler, t: float, params: ModelParams,
                 grid: RadialGrid) -> RadialField:
    """Map a trapped solution to the free side at free time t.

    sampler(r_array, s) must return the trapped solution at trapped time s.
    Exact algebraic inverse of lens_forward, defined for all t; the solved
    equation matches the trapped one only at the critical power, which is
    required here.
    """
    params.require_critical("the lens equivalence")
    gamma = params.gamma
    m2 = 1.0 + 4.0 * (gamma * t) ** 2
    m = math.sqrt(m2)
    s = math.atan(2.0 * gamma * t) / (2.0 * gamma)
    r = grid.r
    inner = np.asarray(sampler(r / m, s), dtype=complex)
    phase = np.exp(1j * gamma ** 2 * t * r ** 2 / m2)
    vals = m ** (-grid.dim / 2.0) * phase * inner
    return RadialField(grid, vals)


def snapshot_sampler(snapshots):
    """Space-time sampler backed by recorded snapshots.

    Interpolates cubically in r (zero beyond the grid) and requires each
    requested time to match a recorded snapshot time within 1e-9.
    """
    table = [(float(ts), ProfileInterpolant(field)) for ts, field in snapshots]

    def sample(r_array, t):
        for ts, interp in table:
            if abs(ts - t) <= 1e-9:
                return interp(r_array)
        raise ParameterError(
            f"no snapshot at t = {t}; recorded times: {[ts for ts, _ in table]}")

    return sample


def _minimal_mass_values(fp, t, params, q_interp, r, extended=False):
    """Composite closed form at trapped time t on radii r.

    For 0 <= t < T all scale factors are positive; with extended=True the
    expression is continued past T/caustics using principal complex powers
    (used by the periodicity diagnostics).
    """
    gamma = params.gamma
    N = params.dim
    lam0 = fp.lambda0
    T = fp.T
    c = math.cos(2.0 * gamma * t)
    if abs(c) <= 1e-6:
        raise CausticError("evaluation at the lens caustic")
    # inner free time of the composed family and the combined scale
    sigma = math.sin(2.0 * gamma * (T - t)) / (2.0 * gamma * math.cos(2.0 * gamma * T))
    s_inner = sigma / c
    if not extended and (sigma <= 0.0 or s_inner <= 0.0):
        raise ParameterError("inner time not positive; t outside [0, T)")
    quad_phase = 0.5 * gamma * math.tan(2.0 * gamma * t) + 1.0 / (4.0 * s_inner * c * c)
    if extended:
        amp = np.power(complex(lam0 / sigma), N / 2.0)
    else:
        amp = (lam0 / sigma) ** (N / 2.0)
    phase = fp.theta0 + lam0 ** 2 / s_inner - quad_phase * r ** 2
    return np.exp(1j * phase) * amp * q_interp(np.abs(lam0 * r / sigma))


def minimal_mass_solution(fp: BlowupFamilyParams, t: float,
                          params: ModelParams, soliton,
                          grid: RadialGrid) -> RadialField:
    """Critical-mass solution collapsing at time T, evaluated at time t.

    Composition of the trapped-side lens map with the self-similar family:
    mass equals the critical mass at every t and the gradient norm diverges
    as t approaches T.
    """
    params.require_critical("the minimal-mass solution")
    if fp.lambda0 is None or fp.T is None:
        raise ParameterError("minimal_mass_solution needs fp.lambda0 and fp.T")
    if not 0.0 < fp.T < caustic_time(params):
        raise ParameterError(
            f"collapse time T must lie in (0, {caustic_time(params)})")
    if not 0.0 <= t < fp.T:
        raise ParameterError(f"t = {t} outside [0, T = {fp.T})")
    q = _as_interp(soliton, 2.0 - params.b)
    vals = _minimal_mass_values(fp, t, params, q, grid.r)
    return RadialField(grid, vals)


def minimal_mass_initial(fp: BlowupFamilyParams, params: ModelParams,
                         soliton, grid: RadialGrid) -> RadialField:
    """Initial state of the minimal-mass solution in its beta0 form.

    Equals minimal_mass_solution at t = 0 to rounding.  The constant phase
    is exp(i 4 gamma beta0^2 / sin 4 gamma T), as derived by substituting
    t = 0 into the composite formula.
    """
    params.require_critical("the minimal-mass initial state")
    if fp.lambda0 is None or fp.T is None:
        raise ParameterError("minimal_mass_initial needs fp.lambda0 and fp.T")
    gamma = params.gamma
    T = fp.T
    if not 0.0 < T < caustic_time(params):
        raise ParameterError(
            f"collapse time T must lie in (0, {caustic_time(params)})")
    b0 = fp.beta0(gamma)
    N = params.dim
    scale = 2.0 * gamma * b0 / math.sin(2.0 * gamma * T)
    const_phase = fp.theta0 + 4.0 * gamma * b0 ** 2 / math.sin(4.0 * gamma * T)
    q = _as_interp(soliton, 2.0 - params.b)
    r = grid.r
    phase = const_phase - 0.5 * gamma * r ** 2 / math.tan(2.0 * gamma * T)
    vals = np.exp(1j * phase) * scale ** (N / 2.0) * q(scale * r)
    return RadialField(grid, vals)
