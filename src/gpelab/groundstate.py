"""Stationary profiles: decaying ground profile, trapped bound states and
mass-constrained minimizers.

Every solver returns the exact solution of the *discrete* stationary system
(Newton-polished), so the reported residual is the sup-norm of the discrete
operator applied to the profile, not an ODE-sampling artifact.

The free profile and the bound states are least-action states on the
Nehari set.  One preconditioned descent of the action, rescaled onto the
Nehari set after every step, brings a Gaussian (exponential for the free
profile) start close to that state; Newton then solves the discrete system,
and the result is rejected unless it is nontrivial, positive and monotone.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dnrm2

from .core import (ConvergenceError, GridMismatchError, ModelParams,
                   ParameterError, RadialField, RadialGrid, apply_laplacian,
                   default_grid, factor_operator, nonlinear_rate, nonlinearity,
                   require_positive_finite, stationary_residual)
from .functionals import _field_moments, _moments

__all__ = [
    "ConvergenceError", "EnergyUnboundedError",
    "ConstraintEmptyError", "OutsideHypothesesError",
    "GroundStateResult", "UniquenessReport",
    "solve_soliton", "solve_bound_state", "constrained_minimizer",
    "stationary_residuals", "uniqueness_report",
    "save_profile", "load_profile", "soliton_grid",
]


class EnergyUnboundedError(ConvergenceError):
    """Monotone divergence of the descent: the energy is unbounded below."""


class ConstraintEmptyError(ParameterError):
    """The mass/ball constraint set is empty (q > ball_radius / (gamma N))."""


class OutsideHypothesesError(ParameterError):
    """Parameters outside the hypotheses of the uniqueness criterion."""


@dataclass(frozen=True)
class GroundStateResult:
    """Converged stationary profile plus its diagnostics.

    omega is the frequency of the stationary equation actually solved:
    1 for the free decaying profile, the input frequency for bound states,
    and the extracted Lagrange multiplier for constrained flows.
    pohozaev_1/2 are the residuals of the two stationarity identities
    (pairing with u and with x . grad u) for that same equation.
    residual_sup is the sup residual of the profile; it exceeds the
    solver's tol only where Newton stalls at the rounding floor of a state
    whose rounding alone exceeds tol (see _newton).  The profile is
    positive and nonincreasing at rounding: a far tail may hold entries
    within _FLOOR_EPS max|u| of zero (0 or a tiny negative), reported as
    Newton returned them (see _polish).  iterations counts the
    Newton updates made; for the minimizer it adds the gradient-flow steps
    tried before them.  status is "converged" for an accepted stationary
    state and "gradient_diverging" for a critical minimizer flow stopped on
    a diverging gradient (no Newton polish); converged is
    status == "converged".
    """

    profile: RadialField
    omega: float
    residual_sup: float
    pohozaev_1: float
    pohozaev_2: float
    mass: float
    energy: float
    iterations: int
    status: str = "converged"

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _result(params, grid, u, gamma, omega, res, n_iter, status="converged"):
    """The GroundStateResult of node values u of the stationary equation
    with trap strength gamma and frequency omega."""
    prof = RadialField(grid, u)
    b, p = params.b, params.p
    m = _moments(prof.values, grid, b, p)
    id1, id2 = m.pohozaev(params.dim, b, p, gamma, omega)
    return GroundStateResult(
        profile=prof, omega=omega, residual_sup=res, pohozaev_1=id1,
        pohozaev_2=id2, mass=m.M, energy=m.energy(p, gamma, 1.0),
        iterations=n_iter, status=status)


def _check_entry(params, grid, **positive):
    """The entry check of every stationary solver: grid and params share
    the dimension, and each named input that is given (tol, and q and
    ball_radius of the minimizer) is positive and finite."""
    params.require_grid(grid)
    for name, value in positive.items():
        if value is not None:
            require_positive_finite(name, value)


# ------------------------------------------------------------------ descent

# Step size, step cap and relative stop of every Nehari descent.
_DESCENT_STEP = 10.0
_DESCENT_MAX_ITER = 500
_DESCENT_RTOL = 1e-3
# Largest log <Lu,u> of a projected state: its quadratic forms and those
# of the Newton iterates from it stay finite.
_LOG_FORM_MAX = math.log(1e300)


def _nehari_descent(u, coeff, grid, b, p):
    """Preconditioned descent of the action with reprojection onto the
    Nehari set of -Lap v + coeff v = r^(-b)|v|^(p-1)v, over-relaxed by its
    own observed contraction.

    The plain step is S(v) = (1 + step L)^(-1) (v + step f(v)) with
    f(v) = r^(-b)|v|^(p-1)v and L = -Lap + coeff, positive definite for the
    trapped coeff = omega + gamma^2 r^2, omega > -gamma N, and the free
    coeff = 1, so it is factored L D L' once per call.  Step k takes the
    extrapolated point v + c_k (S(v) - v): it solves for the right-hand
    side v + step (f - (c_k - 1) F), where F = L v - f(v) is the residual
    the stop check forms, so a step is still one solve.  L x = (rhs - x) /
    step comes from that solve, and only the start pays for an apply of the
    Laplacian.  x is rescaled onto <L v, v> = P(v), which removes the one
    unstable (amplitude) direction of the least-action state (Li & Zhou,
    SIAM J. Sci. Comput. 23 (2001); cf. the Petviashvili iteration).

    The factor: the linearized plain step is similar to a symmetric
    operator with eigenvalues (1 + step <N' phi, phi>) / (1 + step <L phi,
    phi>) > 0, N' = p r^(-b)|u|^(p-1).  At the least-action state the
    projection removes the one mode above 1, so the spectrum lies in
    (0, theta], for which c = 2 / (2 - theta) is the optimal over-relaxation
    (Yang & Lakoba, Stud. Appl. Math. 120 (2008)).  theta is read from the
    ratio kappa of the 2-norms of F over the nodes at successive steps,
    kappa = 1 - c (1 - theta): theta_k = 1 - (1 - kappa) / c_(k-1), clamped
    to [0, 0.9], with c_0 = 1.  At an excited state some mode stays above 1
    and repels for every c in [1, 2), so the descent cannot settle there.

    Stationary states are fixed points.  Stops once max|F| < _DESCENT_RTOL
    max|f(v)|, or after _DESCENT_MAX_ITER steps of size _DESCENT_STEP.
    Raises ConvergenceError when a state has no Nehari projection.  Returns
    (v, steps taken).
    """
    w = grid.weights
    solve = factor_operator(grid, coeff, scale=_DESCENT_STEP, shift=1.0,
                            definite=True)

    def project(x, Lx):
        fx = nonlinearity(x, grid, b, p)
        wx = w * x
        H = float(np.dot(wx, Lx))
        P = float(np.dot(wx, fx))
        if not (H > 0.0 and P > 0.0):
            raise ConvergenceError(
                f"no Nehari projection: <Lu,u> = {H:.3e}, P = {P:.3e}")
        # lam^2 scales <Lx, x>; p close to 1 can ask for a state past the
        # floating-point range
        if math.log(H) + 2.0 * math.log(H / P) / (p - 1.0) > _LOG_FORM_MAX:
            raise ConvergenceError(
                f"Nehari projection out of floating-point range: <Lu,u> = "
                f"{H:.3e}, P = {P:.3e}, p = {p}")
        lam = (H / P) ** (1.0 / (p - 1.0))
        f = lam ** p * fx
        return lam * x, lam * Lx - f, f

    x = np.asarray(u, dtype=float)
    v, F, f = project(x, -apply_laplacian(x, grid) + coeff * x)
    # no previous norm reads as kappa = 0, which gives c_0 = 1
    relax, norm_prev = 1.0, math.inf
    for it in range(_DESCENT_MAX_ITER):
        if np.max(np.abs(F)) < _DESCENT_RTOL * np.max(np.abs(f)):
            return v, it
        # BLAS nrm2 scales as it sums: no overflow near _LOG_FORM_MAX
        norm = dnrm2(F)
        theta = min(max(1.0 - (1.0 - norm / norm_prev) / relax, 0.0), 0.9)
        relax, norm_prev = 2.0 / (2.0 - theta), norm
        rhs = v + _DESCENT_STEP * (f - (relax - 1.0) * F)
        x = solve(rhs)
        v, F, f = project(x, (rhs - x) / _DESCENT_STEP)
    return v, _DESCENT_MAX_ITER


# ------------------------------------------------------------------- Newton

# The rounding floor of the sup residual, per unit of max_i (|lap_diag_i|
# + |coeff_i| + r_i^(-b)|u_i|^(p-1)) |u_i|: converged states sit at 0.1-82
# eps times that scale, an iterate one update from the descent guess at
# 1e4-1e9 eps.
_FLOOR_EPS = 100.0 * np.finfo(float).eps


def _rounding_floor(u, coeff, grid, b, p):
    """The sup residual of -Lap u + coeff u - r^(-b)|u|^(p-1)u at which u is
    at rounding."""
    scale = np.max((np.abs(grid.lap_diag) + np.abs(coeff)
                    + nonlinear_rate(u, grid, b, p)) * np.abs(u))
    return _FLOOR_EPS * float(scale)


def _newton(u, coeff, grid, b, p, tol, q=None, omega=0.0, max_iter=60):
    """Newton for -Lap u + (coeff + omega) u - r^(-b)|u|^(p-1)u = 0.

    With a mass target q the Jacobian is bordered by ||u||^2 = q and omega
    is solved for as well; without one omega stays fixed.  Stops once an
    update has cut the sup residual by less than 30%, to below tol or to at
    most its _rounding_floor, and with q only once |mass - q| <= 1e-12 q:
    Newton has then stalled at rounding, which for a state whose rounding
    alone exceeds tol lies above tol.  Each update is halved until it
    lowers the residual (at most down to 1/1000 of the full step); below
    tol it is taken whole, as at the rounding floor the residual cannot
    fall and halving would throttle the mass correction.  Returns
    (u, omega, residual of that u, Newton updates made, why it stopped):
    "tol" for a stall below tol, "floor" for a stall at the rounding floor,
    "max_iter" for a run out of updates.
    """
    w = grid.weights
    F = stationary_residual(u, grid, coeff + omega, b, p)
    res, res_prev = float(np.max(np.abs(F))), np.inf
    for it in range(max_iter + 1):
        stop = None
        if res >= 0.7 * res_prev:
            if res < tol:
                stop = "tol"
            elif res <= _rounding_floor(u, coeff + omega, grid, b, p):
                stop = "floor"
        if q is not None:
            gap = float(np.dot(w, u * u)) - q
            if abs(gap) > 1e-12 * q:
                stop = None
        if stop or it == max_iter:
            return u, omega, res, it, stop or "max_iter"
        res_prev = res
        solve = factor_operator(grid, coeff + omega
                                - p * nonlinear_rate(u, grid, b, p))
        step, domega = solve(-F), 0.0
        if q is not None:
            x1 = solve(-u)
            denom = 2.0 * float(np.dot(w, u * x1))
            if denom == 0.0:
                raise ConvergenceError("singular bordered system")
            domega = (-gap - 2.0 * float(np.dot(w, u * step))) / denom
            step = step + domega * x1
        scale = 1.0
        for _ in range(12):
            u_try, omega_try = u + scale * step, omega + scale * domega
            F = stationary_residual(u_try, grid, coeff + omega_try, b, p)
            if np.max(np.abs(F)) < res or res < tol or scale < 1e-3:
                break
            scale *= 0.5
        u, omega = u_try, omega_try
        res = float(np.max(np.abs(F)))


def _polish(guess, coeff, grid, b, p, tol, q=None, omega=0.0):
    """Newton from guess, accepted only as a nontrivial positive monotone
    state whose residual is within tol or, where rounding alone exceeds
    tol, one at which Newton stalled at the rounding floor; returns (u,
    omega, residual, Newton updates).  Sign and monotonicity are judged at
    rounding too: entries and rises within _FLOOR_EPS max|u| of zero count
    as zero, so a tail that underflowed to 0 or to a tiny negative passes,
    and u is returned as Newton left it."""
    u, omega, res, n_iter, stop = _newton(guess, coeff, grid, b, p, tol, q,
                                          omega)
    if res > tol and stop != "floor":
        raise ConvergenceError(
            f"stationary residual {res:.3e} above tolerance {tol:.1e}")
    # u = 0 solves the discrete system too; Newton can fall onto it
    top, start = np.max(np.abs(u)), np.max(np.abs(guess))
    if top < 1e-6 * start:
        raise ConvergenceError(
            f"Newton fell to the trivial state: max|u| = {top:.3e} from a "
            f"guess of max {start:.3e}")
    zero = _FLOOR_EPS * top
    if not np.all(u >= -zero):
        raise ConvergenceError("profile is not strictly positive on the grid")
    if not np.all(np.diff(u) <= zero):
        raise ConvergenceError("profile is not monotone nonincreasing")
    return u, omega, res, n_iter


def _ground_state(params, grid, tol, omega, gamma_eff):
    """Least-action state of -Lap u + (omega + gamma_eff^2 r^2) u
    = r^(-b) u^p: the Nehari descent from exp(-gamma_eff r^2/2) (exp(-r)
    when gamma_eff = 0), polished by Newton."""
    _check_entry(params, grid, tol=tol)
    b, p = params.b, params.p
    r2 = grid.r_pow(2.0)
    coeff = omega + gamma_eff ** 2 * r2
    start = (np.exp(-gamma_eff * r2 / 2.0) if gamma_eff > 0.0
             else np.exp(-grid.r))
    guess, _ = _nehari_descent(start, coeff, grid, b, p)
    u, _, res, n_iter = _polish(guess, coeff, grid, b, p, tol)
    return _result(params, grid, u, gamma_eff, omega, res, n_iter)


def soliton_grid(params: ModelParams, h: float = 2e-3,
                 rmax: float = 20.0) -> RadialGrid:
    """Default mesh for the free decaying profile.

    The free profile decays like exp(-r), so the truncation radius must be
    large enough that exp(-2 rmax) is negligible; rmax = 20 matches the
    exp(-40) truncation budget of the trapped default mesh.
    """
    return RadialGrid(h=h, rmax=rmax, dim=params.dim)


def solve_soliton(params: ModelParams, grid: RadialGrid | None = None,
                  tol: float = 1e-8) -> GroundStateResult:
    """Positive decaying radial solution of -Lap Q + Q = |x|^(-b) Q^p.

    Defined at the critical power p = 1 + (4-2b)/N; its squared L^2 norm is
    the critical mass separating global existence from collapse.
    """
    params.require_critical("the decaying ground profile")
    return _ground_state(params, grid or soliton_grid(params), tol, 1.0, 0.0)


def solve_bound_state(params: ModelParams, grid: RadialGrid | None = None,
                      tol: float = 1e-8) -> GroundStateResult:
    """Positive decaying solution of the trapped stationary equation at the
    frequency params.omega > -gamma N."""
    omega = params.require_omega()
    return _ground_state(params, grid or default_grid(params), tol, omega,
                         params.gamma)


def stationary_residuals(u: RadialField, params: ModelParams):
    """Residuals of the two trapped stationarity identities of u.

    First: pairing the stationary equation with u (vanishes identically for
    any discrete stationary state).  Second: the x . grad u pairing.
    """
    omega = params.require_omega()
    return _field_moments(u, params).pohozaev(params.dim, params.b, params.p,
                                              params.gamma, omega)


# ------------------------------------------------- constrained minimization

def constrained_minimizer(q: float, params: ModelParams,
                          grid: RadialGrid | None = None,
                          ball_radius: float | None = None,
                          tol: float = 1e-8,
                          max_iter: int = 40000,
                          energy_trace: list | None = None) -> GroundStateResult:
    """Energy minimizer at prescribed mass q by normalized gradient descent.

    Semi-implicit treatment of the stiff linear operator, explicit
    nonlinearity, renormalization to mass q each step; a bordered Newton
    polish removes the remaining flow error.  The multiplier is extracted
    from the inner-product identity omega q = P - ||grad u||^2
    - gamma^2 ||x u||^2, which is exact at stationarity.

    With ball_radius set this is the local variational problem on the ball
    ||u||_H^2 <= ball_radius; the constraint set is nonempty iff
    q <= ball_radius / (gamma N), and the minimizer must end up strictly
    inside the ball (checked a posteriori with a 1% margin).
    """
    if grid is None:
        grid = default_grid(params)
    _check_entry(params, grid, tol=tol, q=q, ball_radius=ball_radius)
    if ball_radius is not None and q > ball_radius / (params.gamma * params.dim):
        raise ConstraintEmptyError(
            f"constraint set empty: q = {q} exceeds ball_radius/(gamma N) = "
            f"{ball_radius / (params.gamma * params.dim)}")
    supercritical_free = (params.criticality == "supercritical"
                          and ball_radius is None)

    w = grid.weights
    r2 = grid.r_pow(2.0)
    dim, b, p, gamma = params.dim, params.b, params.p, params.gamma
    trap_coeff = gamma ** 2 * r2

    u = np.exp(-gamma * r2 / 2.0)
    u *= math.sqrt(q / float(np.dot(w, u * u)))

    # Multiplier-shifted semi-implicit step: with the current multiplier in
    # the implicit operator, discrete stationary states are exact fixed
    # points of the normalized step (the unshifted variant stalls at an
    # O(dtau)-biased profile).
    dtau = 0.5
    m = _moments(u, grid, b, p)
    E_prev, g0, omega = m.energy(p, gamma, 1.0), m.G, m.multiplier(gamma)
    g_prev = g0
    grow = 0
    flow_tol = max(math.sqrt(tol), 100.0 * tol)
    it = 0
    res_mark = math.inf
    while it < max_iter:
        it += 1
        solve = factor_operator(
            grid, trap_coeff + max(omega, -gamma * dim), scale=dtau, shift=1.0,
            definite=True)
        u_new = solve(u + dtau * nonlinearity(u, grid, b, p))
        u_new *= math.sqrt(q / float(np.dot(w, u_new * u_new)))
        m = _moments(u_new, grid, b, p)
        E_new, g = m.energy(p, gamma, 1.0), m.G
        if E_new > E_prev + 1e-10 * max(1.0, abs(E_prev)):
            if dtau <= 1e-8:
                break
            dtau *= 0.5
            continue
        if g > g_prev * (1.0 + 1e-10) and g > 25.0 * g0:
            grow += 1
        else:
            grow = 0
        g_prev = g
        # gentle monotone divergence, or a catastrophic dive onto a
        # grid-concentrated state (the unbounded direction collapses within
        # a few steps and then saturates at the mesh scale)
        diverged = grow >= 50 or g > 1e4 * g0 or E_new < -1e8 * (1.0 + abs(g0))
        if diverged:
            if supercritical_free:
                raise EnergyUnboundedError(
                    "energy unbounded: the descent diverges (supercritical "
                    "power without a ball constraint)")
            if params.is_critical and ball_radius is None:
                omega = m.multiplier(gamma)
                res = float(np.max(np.abs(stationary_residual(
                    u_new, grid, trap_coeff + omega, b, p))))
                return _result(params, grid, u_new, gamma, omega, res, it,
                               "gradient_diverging")
            raise ConvergenceError(
                "descent diverged; the mass target is outside the "
                "admissible range for this constraint")
        u = u_new
        E_prev = E_new
        if energy_trace is not None:
            energy_trace.append(E_new)
        omega = m.multiplier(gamma)
        res = float(np.max(np.abs(
            stationary_residual(u, grid, trap_coeff + omega, b, p))))
        if res < flow_tol:
            break
        if it % 200 == 0:
            # hand a plateaued flow to Newton rather than spinning
            if res > 0.999 * res_mark:
                break
            res_mark = res
    else:
        raise ConvergenceError(
            f"nonconvergence: {max_iter} descent steps without stationarity")

    u, omega, res, n_newton = _polish(u, trap_coeff, grid, b, p, tol, q, omega)
    if ball_radius is not None:
        hsq = _moments(u, grid, b, p).h_norm_sq(gamma, 0.0)
        if hsq > 0.99 * ball_radius:
            raise ConvergenceError(
                f"minimizer not strictly inside the ball: ||u||_H^2 = {hsq} "
                f"vs ball_radius = {ball_radius}")
    return _result(params, grid, u, gamma, omega, res, it + n_newton)


# --------------------------------------------------------------- uniqueness

@dataclass(frozen=True)
class UniquenessReport:
    """Sign diagnostics of the sign-change polynomial G(r) = A r^2 + B r + C
    underlying the uniqueness criterion for the trapped stationary equation
    (valid for N >= 3, 0 < b < 1, trap strength normalized to 1)."""

    A: float
    B: float
    C: float
    k: float
    r_samples: np.ndarray
    a_of_r: np.ndarray
    beta_of_r: np.ndarray
    c_of_r: np.ndarray
    conditions_hold: bool


def uniqueness_report(params: ModelParams,
                      r_samples: np.ndarray | None = None) -> UniquenessReport:
    """Assemble the uniqueness-criterion coefficients and auxiliary weights.

    The criterion normalizes the trap strength to 1; for other gamma the
    frequency enters as omega / gamma.  Raises OutsideHypothesesError for
    N < 3 or b >= 1, where the criterion is not available.
    """
    if params.dim < 3 or params.b >= 1.0:
        raise OutsideHypothesesError(
            "outside appendix hypotheses: need N >= 3 and 0 < b < 1")
    omega = params.require_omega() / params.gamma
    N, b, p = params.dim, params.b, params.p

    A = -(p + 3.0) ** 2 * (2.0 * b + N * (p - 1.0) + 4.0)
    B = omega * (p + 3.0) ** 2 * (2.0 * N - (2.0 + b))
    C = ((b - 2.0 * N + 2.0) * (p * (N - 2.0) + b + N - 4.0)
         * (p * (N - 2.0) + 2.0 * b - N - 2.0))

    disc = B * B - 4.0 * A * C
    k = (-B - math.sqrt(max(disc, 0.0))) / (2.0 * A)

    if r_samples is None:
        r_samples = np.linspace(0.05, 10.0, 200)
    r_samples = np.asarray(r_samples, dtype=float)
    exp_a = 2.0 * (b + (N - 1.0) * (p + 1.0)) / (p + 3.0)
    a_of_r = r_samples ** exp_a
    coef_beta = (2.0 * (N - 1.0) - b) / (p + 3.0)
    beta_of_r = coef_beta * r_samples ** (exp_a - 1.0)
    c_of_r = coef_beta * (N - 1.0 - (exp_a - 1.0)) * r_samples ** (exp_a - 2.0)

    conditions = (A < 0.0) and (C >= 0.0) and (k >= 0.0)
    return UniquenessReport(A=A, B=B, C=C, k=k, r_samples=r_samples,
                            a_of_r=a_of_r, beta_of_r=beta_of_r,
                            c_of_r=c_of_r, conditions_hold=conditions)


# ------------------------------------------------------------ serialization

def save_profile(path, result_or_field, params: ModelParams,
                 extra_header: dict | None = None) -> None:
    """Write a real radial profile as two-column text with a header.

    The header records the model parameters, the mesh, the stationary
    frequency of a GroundStateResult (None for a bare field) and any extra
    metadata; values carry 17 significant digits.
    """
    if isinstance(result_or_field, GroundStateResult):
        field, omega = result_or_field.profile, result_or_field.omega
    else:
        field, omega = result_or_field, None
    vals = field.values
    if np.max(np.abs(vals.imag)) > 1e-12 * max(np.max(np.abs(vals)), 1e-300):
        raise ValueError("profile serialization is defined for real profiles")
    g = field.grid
    lines = ["# gpelab radial profile"]
    for key, val in params.as_dict().items():
        lines.append(f"# {key} = {val!r}")
    lines.append(f"# grid_h = {g.h!r}")
    lines.append(f"# grid_rmax = {g.rmax!r}")
    lines.append(f"# stationary_omega = {omega!r}")
    for key, val in (extra_header or {}).items():
        if key not in ("dim", "b", "p", "gamma", "omega"):
            lines.append(f"# {key} = {val!r}")
    lines.append("# columns: r value")
    rows = np.column_stack((g.r, vals.real)).ravel().tolist()
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write("%.17g %.17g\n" * g.n % tuple(rows))


def load_profile(path):
    """Read a profile written by save_profile; returns (field, header dict)."""
    header = {}
    with open(path) as fh:
        # the header is the leading comment block; np.loadtxt reads the rows
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                break
            key, eq, val = line[1:].partition("=")
            if eq:
                header[key.strip()] = ast.literal_eval(val.strip())
    data = np.loadtxt(path, ndmin=2)
    if data.size and data.shape[1] != 2:
        raise ValueError(f"profile rows hold {data.shape[1]} numbers, not 2")
    grid = RadialGrid(h=header["grid_h"],
                      rmax=header["grid_rmax"],
                      dim=int(header["dim"]))
    if len(data) != grid.n or not np.allclose(data[:, 0], grid.r):
        raise GridMismatchError("profile nodes do not match the header grid")
    return RadialField(grid, data[:, 1]), header
