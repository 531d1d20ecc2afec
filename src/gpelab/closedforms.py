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
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dptsv

from .core import (ModelParams, ParameterError, PreconditionError,
                   RadialField, RadialGrid, symmetric_form)

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


def require_before_caustic(name: str, t: float, params: ModelParams) -> None:
    """Raise PreconditionError naming `name` unless 0 < t < caustic_time."""
    if not 0.0 < t < caustic_time(params):
        raise PreconditionError(
            f"{name} must lie in (0, {caustic_time(params)}), got {t}")


def oscillator_mode(params: ModelParams, grid: RadialGrid) -> RadialField:
    """Closed-form oscillator ground mode pi^(-N/2) exp(-gamma r^2 / 2).

    Normalization as written; callers renormalize as needed.  Its Rayleigh
    quotient is gamma N and it saturates the harmonic uncertainty
    inequality.
    """
    params.require_grid(grid)
    vals = np.pi ** (-params.dim / 2.0) * np.exp(-params.gamma * grid.r ** 2 / 2.0)
    return RadialField(grid, vals)


def discrete_oscillator_mode(params: ModelParams,
                             grid: RadialGrid) -> RadialField:
    """Lowest eigenvector of the discrete oscillator -Lap + gamma^2 r^2, of
    unit mass and positive first sample: one tridiagonal eigensolve of its
    symmetric_form under the node weights w, divided by sqrt(w).  The
    sampled closed form differs from this by O(h^2), so invariance tests
    of the time integrator should use this discrete mode."""
    params.require_grid(grid)
    diag, off = symmetric_form(grid, params.gamma ** 2 * grid.r_pow(2.0))
    _, vec = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    v = vec[:, 0] / grid.sqrt_weights
    return RadialField(grid, v if v[0] > 0.0 else -v)


@dataclass(frozen=True)
class BlowupFamilyParams:
    """Parameters of the trapped minimal-mass solution: the collapse time T
    (0 < T < pi / (4 gamma)), the scale lambda0 and the phase theta0.

    beta0 = lambda0 cos(2 gamma T) is the induced free-family scale.
    """

    T: float
    lambda0: float
    theta0: float = 0.0

    def beta0(self, gamma: float) -> float:
        return self.lambda0 * math.cos(2.0 * gamma * self.T)


class ProfileInterpolant:
    """Cubic interpolant of a radial profile, even through the origin and
    zero beyond the profile's truncation radius.

    The spline is the not-a-knot cubic on the uniform mesh of spacing h
    formed by the first min(8, n) nodes mirrored through the origin
    followed by the n nodes; its last cubic is extended from the last node
    r = rmax - h/2 up to rmax.  Real profiles are interpolated in real
    arithmetic.

    Profiles of the b-singular problem bend like r^(2-b) at the origin,
    which no polynomial spline can represent; passing singular_exponent
    = 2 - b fits that component on the first nodes, interpolates the smooth
    remainder, and restores the singular part analytically on evaluation.
    """

    def __init__(self, field: RadialField,
                 singular_exponent: float | None = None):
        fit_nodes = 10
        grid = field.grid
        r = grid.r
        vals = np.array(field.values)
        self._sing = None
        if singular_exponent is not None and grid.n >= 2 * fit_nodes:
            e = float(singular_exponent)
            rr = r[:fit_nodes]
            basis = np.stack([np.ones_like(rr), rr ** 2, rr ** e], axis=1)
            coeffs, *_ = np.linalg.lstsq(basis, vals[:fit_nodes], rcond=None)
            a = complex(coeffs[2])
            vals = vals - a * r ** e
            self._sing = (a, e)
        if not np.any(vals.imag):
            vals = vals.real
        k = min(8, grid.n)
        h = grid.h
        x = np.concatenate([-r[:k][::-1], r])
        y = np.concatenate([vals[:k][::-1], vals])
        # second derivatives: M[i-1] + 4 M[i] + M[i+1] = rhs[i] at the
        # interior nodes; not-a-knot (M[0] = 2 M[1] - M[2], and alike at the
        # far end) reduces the first and last of these rows to 6 M = rhs,
        # which leaves a symmetric positive definite system for the rest
        rhs = (6.0 / (h * h)) * (y[2:] - 2.0 * y[1:-1] + y[:-2])
        M = np.empty_like(y)
        M[1], M[-2] = rhs[0] / 6.0, rhs[-1] / 6.0
        inner = rhs[1:-1].copy()
        inner[0] -= M[1]
        inner[-1] -= M[-2]
        # strictly diagonally dominant, so dptsv cannot fail; a complex
        # profile's real and imaginary parts are two right-hand sides
        diag, off = np.full(len(inner), 4.0), np.ones(len(inner) - 1)
        sol = dptsv(diag, off, inner.view(float).reshape(len(inner), -1))[2]
        M[2:-2] = sol.reshape(-1).view(inner.dtype)
        M[0] = 2.0 * M[1] - M[2]
        M[-1] = 2.0 * M[-2] - M[-3]
        # each interval's cubic in powers of t = x - x[i]
        self._x = x[:-1]
        self._coef = (y[:-1],
                      (y[1:] - y[:-1]) / h - h * (2.0 * M[:-1] + M[1:]) / 6.0,
                      M[:-1] / 2.0,
                      (M[1:] - M[:-1]) / (6.0 * h))
        self._h = h
        self.rmax = grid.rmax

    def __call__(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        inside = x <= self.rmax
        xin = x[inside]
        # the mesh is uniform: the interval is a floor, clipped to the last
        i = np.minimum(((xin - self._x[0]) / self._h).astype(np.intp),
                       len(self._x) - 1)
        t = xin - self._x[i]
        c0, c1, c2, c3 = self._coef
        vals = ((c3[i] * t + c2[i]) * t + c1[i]) * t + c0[i]
        if self._sing is not None:
            a, e = self._sing
            vals = vals + a * xin ** e
        out = np.zeros(x.shape, dtype=complex)
        out[inside] = vals
        return out


def blowup_family(beta: float, t: float, soliton: RadialField,
                  grid: RadialGrid, params: ModelParams,
                  theta0: float = 0.0) -> RadialField:
    """Self-similar family of the free critical equation:
    exp(i theta0 + i beta^2/t - i r^2/(4t)) (beta/t)^(N/2) Q(beta r / t).

    Evaluated at reversed time t -> T - t it is the solution collapsing at
    T.  Mass-preserving in t; the gradient norm grows like 1/t toward
    t = 0.  Q is interpolated with its r^(2-b) origin fit.
    """
    if t <= 0.0:
        raise PreconditionError("the family is defined for t > 0")
    q = ProfileInterpolant(soliton, singular_exponent=2.0 - params.b)
    N = grid.dim
    ratio = beta / t
    r = grid.r
    phase = theta0 + beta ** 2 / t - r ** 2 / (4.0 * t)
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

    For 0 <= t < T < caustic_time, which minimal_mass_solution requires,
    all scale factors are positive; with extended=True the
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
    quad_phase = 0.5 * gamma * math.tan(2.0 * gamma * t) + 1.0 / (4.0 * s_inner * c * c)
    if extended:
        amp = np.power(complex(lam0 / sigma), N / 2.0)
    else:
        amp = (lam0 / sigma) ** (N / 2.0)
    phase = fp.theta0 + lam0 ** 2 / s_inner - quad_phase * r ** 2
    return np.exp(1j * phase) * amp * q_interp(np.abs(lam0 * r / sigma))


def minimal_mass_solution(fp: BlowupFamilyParams, t: float,
                          params: ModelParams, soliton: RadialField,
                          grid: RadialGrid) -> RadialField:
    """Critical-mass solution collapsing at time T, evaluated at time t.

    Composition of the trapped-side lens map with the self-similar family:
    mass equals the critical mass at every t and the gradient norm diverges
    as t approaches T.  Q is interpolated with its r^(2-b) origin fit.
    """
    params.require_critical("the minimal-mass solution")
    require_before_caustic("collapse time T", fp.T, params)
    if not 0.0 <= t < fp.T:
        raise PreconditionError(f"t = {t} outside [0, T = {fp.T})")
    q = ProfileInterpolant(soliton, singular_exponent=2.0 - params.b)
    vals = _minimal_mass_values(fp, t, params, q, grid.r)
    return RadialField(grid, vals)


def minimal_mass_initial(fp: BlowupFamilyParams, params: ModelParams,
                         soliton: RadialField,
                         grid: RadialGrid) -> RadialField:
    """Initial state of the minimal-mass solution in its beta0 form.

    Equals minimal_mass_solution at t = 0 to rounding.  The constant phase
    is exp(i 4 gamma beta0^2 / sin 4 gamma T), as derived by substituting
    t = 0 into the composite formula.
    """
    params.require_critical("the minimal-mass initial state")
    gamma = params.gamma
    T = fp.T
    require_before_caustic("collapse time T", T, params)
    b0 = fp.beta0(gamma)
    N = params.dim
    scale = 2.0 * gamma * b0 / math.sin(2.0 * gamma * T)
    const_phase = fp.theta0 + 4.0 * gamma * b0 ** 2 / math.sin(4.0 * gamma * T)
    q = ProfileInterpolant(soliton, singular_exponent=2.0 - params.b)
    r = grid.r
    phase = const_phase - 0.5 * gamma * r ** 2 / math.tan(2.0 * gamma * T)
    vals = np.exp(1j * phase) * scale ** (N / 2.0) * q(scale * r)
    return RadialField(grid, vals)
