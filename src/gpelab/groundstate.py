"""Stationary profiles: decaying ground profile, trapped bound states and
mass-constrained minimizers.

Every solver returns the exact solution of the *discrete* stationary system
(Newton-polished), so the reported residual is the sup-norm of the discrete
operator applied to the profile, not an ODE-sampling artifact.

The free profile and the bound states are least-action states on the
Nehari set.  One preconditioned descent of the action, rescaled onto the
Nehari set after every step, brings a Gaussian (exponential for the free
profile) start close to that state.  It runs on the mesh of spacing 2h,
and linear interpolation carries its state to the mesh of spacing h
(nested iteration); Newton then solves the discrete system there, and the
result is rejected unless it is nontrivial, positive and monotone.  Where
the coarse descent fails, or Newton's result from it is rejected, the
descent runs again on h from the same start.  Each Newton update is one
pivoted tridiagonal solve (core.solve_operator).

A mass-constrained minimizer is the state of Newton bordered by the mass,
from a Gaussian of that mass; a normalized gradient flow runs from the
same Gaussian only where that state is rejected.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dnrm2

from .core import (ConvergenceError, GridMismatchError, ModelParams,
                   ParameterError, PreconditionError, RadialField, RadialGrid,
                   apply_laplacian, default_grid, dot, factor_operator,
                   nonlinear_rate, nonlinearity, require_positive_finite,
                   solve_operator, stationary_residual)
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


class OutsideHypothesesError(PreconditionError):
    """Parameters outside the hypotheses of the uniqueness criterion."""


@dataclass(frozen=True)
class GroundStateResult:
    """An accepted stationary profile plus its diagnostics; a solver
    raises where it has none to return.

    omega is the frequency of the stationary equation actually solved:
    1 for the free decaying profile, the input frequency for bound states,
    and the extracted Lagrange multiplier for constrained flows.
    pohozaev_1/2 are the residuals of the two stationarity identities
    (pairing with u and with x . grad u) for that same equation.
    residual_sup is the sup residual of the profile: below tol where
    Newton's last update brought it to its rounding floor or stalled
    there, and above tol only where Newton stalls at the rounding floor of
    a state whose rounding alone exceeds tol (see _newton).  The profile is
    positive and nonincreasing at rounding: a far tail may hold entries
    within _FLOOR_EPS max|u| of zero (0 or a tiny negative), reported as
    Newton returned them (see _polish).  iterations counts the Newton
    updates that made the profile, the last of them the one that reached
    rounding (2 at the default bound states and the free profile, with no
    update spent to confirm the stall).  For a minimizer that its first
    Newton did not reach, it is the gradient-flow steps plus the updates of
    the Newton after them (the first Newton's updates are not counted).  The
    minimizer raises only where that flow collapses (||grad u||^2 rising
    for 50 steps above 25 times its start or passing 1e4 times it, or
    omega h^2 > 1e-2 without a ball), takes _FLOW_MAX_ITER steps without
    reaching its stop, or ends in a state that Newton or the ball check
    rejects.
    """

    profile: RadialField
    omega: float
    residual_sup: float
    pohozaev_1: float
    pohozaev_2: float
    mass: float
    energy: float
    iterations: int


def _result(params, grid, u, gamma, omega, res, n_iter):
    """The GroundStateResult of node values u of the stationary equation
    with trap strength gamma and frequency omega."""
    prof = RadialField(grid, u)
    b, p = params.b, params.p
    m = _moments(prof.values, grid, b, p)
    id1, id2 = m.pohozaev(params.dim, b, p, gamma, omega)
    return GroundStateResult(
        profile=prof, omega=omega, residual_sup=res, pohozaev_1=id1,
        pohozaev_2=id2, mass=m.M, energy=m.energy(p, gamma, 1.0),
        iterations=n_iter)


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


def _nehari_scale(H, P, p):
    """lam = (H / P)^(1/(p-1)), which puts a state with <Lu,u> = H and
    potential term P on the Nehari set; raises ConvergenceError where H or
    P is not positive or lam^2 H would leave the floating-point range."""
    if not (H > 0.0 and P > 0.0):
        raise ConvergenceError(
            f"no Nehari projection: <Lu,u> = {H:.3e}, P = {P:.3e}")
    if (p + 1.0) * math.log(H) - 2.0 * math.log(P) > (p - 1.0) * _LOG_FORM_MAX:
        raise ConvergenceError(
            f"Nehari projection out of floating-point range: <Lu,u> = "
            f"{H:.3e}, P = {P:.3e}, p = {p}")
    return (H / P) ** (1.0 / (p - 1.0))


def _row_products(wv, F, f):
    """The inner products <w v, F> and <w v, f> of each row of a block, as
    two lists of floats: one core.dot per product for the block, or for
    the row itself in a block of one row (cheaper, and the same bits)."""
    if len(wv) == 1:
        wv = wv[0]
        return [float(dot(wv, F[0]))], [float(dot(wv, f[0]))]
    return dot(wv, F).tolist(), dot(wv, f).tolist()


def _per_row(factors):
    """The factors of the rows of a block as a column, by which the block
    scales each row by its own; the float itself for a block of one row
    (cheaper, and the same bits)."""
    return factors[0] if len(factors) == 1 else np.array(factors)[:, None]


def _nehari_descent(coeff, grid, b, p):
    """Preconditioned descent of the action with reprojection onto the
    Nehari set of -Lap v + coeff v = r^(-b)|v|^(p-1)v, over-relaxed by its
    own observed contraction; returns descend(trials) -> one outcome per
    trial: (v, steps taken), or the ConvergenceError that stopped it.

    The plain step is S(v) = (1 + step L)^(-1) (v + step f(v)) with
    f(v) = r^(-b)|v|^(p-1)v and L = -Lap + coeff, positive definite for the
    trapped coeff = omega + gamma^2 r^2, omega > -gamma N, and the free
    coeff = 1, so it is factored L D L' once, here, and every descend
    shares that factorization.  Step k takes the extrapolated point
    v + c_k (S(v) - v): it solves for the right-hand side
    v + step (f - (c_k - 1) F), where F = L v - f(v) is the residual the
    stop check forms, so a step is still one solve.  L x = (rhs - x) / step
    comes from that solve, and only the start pays for an apply of the
    Laplacian.  x is rescaled onto <L v, v> = P(v), which removes the one
    unstable (amplitude) direction of the least-action state (Li & Zhou,
    SIAM J. Sci. Comput. 23 (2001); cf. the Petviashvili iteration).

    descend copies its k >= 1 trials once, into the rows of a C-order
    (k, n) block (the columns of an (n, k) Fortran-order one), and steps
    them in lock step: each step is one solve with k right-hand sides, and
    the elementwise work of the nonlinearity, the right-hand side and L x
    runs once on the block, in place.  So do the two inner products of
    every row, one core.dot each (_row_products), and the scaling of the
    rows by their projection scales and relaxation factors, each a column
    of per-row factors (_per_row).  The scalars of each trial (its
    projection scale, 2-norm, theta and factor) are Python floats of its
    own, so every trial is, bit for bit, its descent alone.  A block of
    one row takes the row's own dot and a float in both helpers, cheaper
    than a stack and a column of one for a single descent (a stationary
    solve's).  A trial stops at its own step and leaves the block, as
    does one whose projection raises, with its error; the others go on
    unchanged.

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

    Stationary states are fixed points.  A trial stops once max|F| <
    _DESCENT_RTOL max|f(v)|, or after _DESCENT_MAX_ITER steps of size
    _DESCENT_STEP, and raises ConvergenceError when its state has no
    Nehari projection.
    """
    # the weights as a row: a block of one row takes numpy's fast path
    w = grid.weights[None, :]
    solve = factor_operator(grid, coeff, scale=_DESCENT_STEP, shift=1.0)

    def descend(trials):
        v = np.array(trials, dtype=float)
        outcomes = [None] * len(v)
        # per row of the block: its trial, factor c and last 2-norm of F;
        # no last norm reads as kappa = 0, which gives c_0 = 1
        rows = [[i, 1.0, math.inf] for i in range(len(v))]

        def without(gone):
            # the block and its rows less the rows in gone
            keep = [j for j in range(len(rows)) if j not in gone]
            return (v[keep], F[keep], f[keep], [rows[j] for j in keep],
                    size[:, :len(keep)])

        size = np.empty((2,) + v.shape)
        # L v; coeff v - Lap v has the bits of -Lap v + coeff v
        F = coeff * v
        F -= apply_laplacian(v, grid)
        for it in range(_DESCENT_MAX_ITER + 1):
            # F holds L v: each row goes to v -> lam v, F -> lam L v - f
            f = nonlinearity(v, grid, b, p)
            # w v in the scratch block; the sup norms overwrite it next
            wv = np.multiply(w, v, out=size[0])
            scales, powers, failed = [], [], []
            for j, (row, H, P) in enumerate(
                    zip(rows, *_row_products(wv, F, f))):
                try:
                    lam = _nehari_scale(H, P, p)
                except ConvergenceError as exc:
                    outcomes[row[0]] = exc
                    failed.append(j)
                    continue
                scales.append(lam)
                powers.append(lam ** p)
            if failed:
                v, F, f, rows, size = without(failed)
            f *= _per_row(powers)
            lam = _per_row(scales)
            v *= lam
            F *= lam
            F -= f
            # max|F| and max|f| per row; exact, as max(F.max(), -F.min()) is
            np.abs(F, out=size[0])
            np.abs(f, out=size[1])
            sup_F, sup_f = np.maximum.reduce(size, axis=2).tolist()
            done, relax = [], []
            for j, (row, F_j) in enumerate(zip(rows, F)):
                if (sup_F[j] < _DESCENT_RTOL * sup_f[j]
                        or it == _DESCENT_MAX_ITER):
                    outcomes[row[0]] = (v[j], it)
                    done.append(j)
                    continue
                # BLAS nrm2 scales as it sums: no overflow near
                # _LOG_FORM_MAX; OpenBLAS runs it on one thread at every
                # size (unlike its dot)
                norm = dnrm2(F_j)
                theta = min(max(1.0 - (1.0 - norm / row[2]) / row[1], 0.0),
                            0.9)
                row[1:] = 2.0 / (2.0 - theta), norm
                relax.append(row[1] - 1.0)
            if len(done) == len(rows):
                return outcomes
            if done:
                v, F, f, rows, size = without(done)
            # rhs = v + step (f - (c - 1) F), formed in F
            F *= _per_row(relax)
            np.subtract(f, F, out=F)
            F *= _DESCENT_STEP
            F += v
            v = solve(F.T).T
            # L v = (rhs - v) / step
            F -= v
            F /= _DESCENT_STEP

    return descend


def _state(outcome):
    """The state v of one trial's outcome of descend; raises the
    ConvergenceError that stopped the trial."""
    if isinstance(outcome, ConvergenceError):
        raise outcome
    return outcome[0]


def _coarse_mesh(grid):
    """The mesh of spacing 2h on the same (0, rmax] and dimension, on which
    a solve's descent starts; grid itself where its node count is odd or
    under 8, which takes no coarse stage.  It is built once per grid and
    kept there, as r_pow keeps its powers, so its own r_pow are computed
    once too.  Applied to its own result it gives the meshes of spacing
    4h, 8h and 16h, each kept on the one above, on which the random level
    trials are drawn and climb (experiments._ladder)."""
    if grid.n % 2 or grid.n < 8:
        return grid
    if grid._coarse is None:
        grid._coarse = RadialGrid(2.0 * grid.h, grid.rmax, grid.dim)
    return grid._coarse


def _prolong(c):
    """Linear interpolation of node values from the mesh of spacing 2h to the
    mesh of spacing h: fine node 2j lies a quarter of a coarse cell below
    coarse node j, and 2j+1 a quarter above.  Below the first coarse node
    the profile is even (c_(-1) = c_0), past the last the odd ghost
    c_(n_c) = -c_(n_c - 1) keeps u(rmax) = 0."""
    below = np.concatenate((c[:1], c[:-1]))
    above = np.concatenate((c[1:], -c[-1:]))
    fine = np.empty(2 * c.size)
    fine[0::2] = 0.75 * c + 0.25 * below
    fine[1::2] = 0.75 * c + 0.25 * above
    return fine


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


def _newton(u, coeff, grid, b, p, tol, q=None, omega=0.0, max_iter=60,
            min_scale=0.0):
    """Newton for -Lap u + (coeff + omega) u - r^(-b)|u|^(p-1)u = 0.

    With a mass target q the Jacobian is bordered by ||u||^2 = q and omega
    is solved for as well; without one omega stays fixed.  Stops, with q
    only once |mass - q| <= 1e-12 q, where the sup residual is below tol
    and at most its _rounding_floor after an update that cut it by 30% or
    more: a quadratically convergent iterate is then at rounding, and a
    further update would only show the stall.  It stops as well once an
    update has cut the residual by less than 30%, to below tol or to at
    most the floor: Newton has then stalled at rounding, which for a state
    whose rounding alone exceeds tol lies above tol.  The focusing rate of
    each iterate is formed once, for its residual and its Jacobian.  Each
    update comes from one solve_operator call, with -F and (with q) -u as
    its columns.  It is halved until it lowers the residual (at most down
    to 1/1000 of the full step); below tol it is taken whole, as at the
    rounding floor the residual cannot fall and halving would throttle the
    mass correction.  An update that lowers the residual at no fraction of
    its full step down to min_scale ends the run before it is taken; the
    default 0 never does.
    Returns (u, omega, residual of that u, Newton updates made, why it
    stopped): "tol" for a residual below tol that is at rounding or has
    stalled, "floor" for a stall above tol at the rounding floor,
    "max_iter" for a run out of updates, "line_search" for an update
    given up at min_scale.
    """
    w = grid.weights

    def residual(u, omega):
        # stationary_residual, and the focusing rate it is formed from
        rate = nonlinear_rate(u, grid, b, p)
        F = -apply_laplacian(u, grid) + (coeff + omega) * u - rate * u
        return F, rate

    F, rate = residual(u, omega)
    res, res_prev = float(np.max(np.abs(F))), np.inf
    for it in range(max_iter + 1):
        stop, stalled = None, res >= 0.7 * res_prev
        if res < tol:
            if stalled or res <= _rounding_floor(u, coeff + omega, grid, b,
                                                 p):
                stop = "tol"
        elif stalled and res <= _rounding_floor(u, coeff + omega, grid, b, p):
            stop = "floor"
        if q is not None:
            gap = float(dot(w, u * u)) - q
            if abs(gap) > 1e-12 * q:
                stop = None
        if stop or it == max_iter:
            return u, omega, res, it, stop or "max_iter"
        res_prev = res
        jac = coeff + omega - p * rate
        if q is None:
            step, domega = solve_operator(grid, jac, -F), 0.0
        else:
            # the bordered update: -F and -u are two columns of one solve
            step, x1 = solve_operator(grid, jac, -np.array((F, u)).T).T
            denom = 2.0 * float(dot(w, u * x1))
            if denom == 0.0:
                raise ConvergenceError("singular bordered system")
            domega = (-gap - 2.0 * float(dot(w, u * step))) / denom
            step = step + domega * x1
        scale = 1.0
        while True:
            u_try, omega_try = u + scale * step, omega + scale * domega
            F, rate = residual(u_try, omega_try)
            if np.max(np.abs(F)) < res or res < tol or scale < 1e-3:
                break
            if scale <= min_scale:
                return u, omega, res, it, "line_search"
            scale *= 0.5
        u, omega = u_try, omega_try
        res = float(np.max(np.abs(F)))


def _polish(guess, coeff, grid, b, p, tol, q=None, omega=0.0, **newton):
    """Newton from guess, accepted only as a nontrivial positive monotone
    state whose residual is within tol (Newton stops there once an update
    has brought it to the rounding floor or stalled) or, where rounding
    alone exceeds tol, one at which Newton stalled at the floor; returns
    (u, omega, residual, Newton updates).  Sign and monotonicity are judged at
    rounding too: entries and rises within _FLOOR_EPS max|u| of zero count
    as zero, so a tail that underflowed to 0 or to a tiny negative passes,
    and u is returned as Newton left it.  Keywords in newton go to _newton
    (the minimizer's first Newton sets min_scale)."""
    u, omega, res, n_iter, stop = _newton(guess, coeff, grid, b, p, tol, q,
                                          omega, **newton)
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
    = r^(-b) u^p by nested iteration (Brandt, Math. Comp. 31, 1977): the
    Nehari descent from exp(-gamma_eff r^2/2) (exp(-r) when gamma_eff = 0)
    runs on _coarse_mesh(grid), the mesh of spacing 2h, _prolong carries
    its state to grid, and Newton polishes it there.  Where the coarse
    descent raises ConvergenceError or _polish rejects its result, the
    descent runs again on grid from the same start and Newton polishes
    that, which is the whole solve on a grid that takes no coarse stage."""
    _check_entry(params, grid, tol=tol)
    b, p = params.b, params.p

    def guess(mesh):
        # the descent on mesh, carried to grid
        r2 = mesh.r_pow(2.0)
        start = (np.exp(-gamma_eff * r2 / 2.0) if gamma_eff > 0.0
                 else np.exp(-mesh.r))
        descend = _nehari_descent(omega + gamma_eff ** 2 * r2, mesh, b, p)
        v = _state(descend([start])[0])
        return v if mesh is grid else _prolong(v)

    coeff = omega + gamma_eff ** 2 * grid.r_pow(2.0)
    coarse = _coarse_mesh(grid)
    if coarse is not grid:
        try:
            u, _, res, n_iter = _polish(guess(coarse), coeff, grid, b, p, tol)
        except ConvergenceError:
            pass        # the solve starts again on grid
        else:
            return _result(params, grid, u, gamma_eff, omega, res, n_iter)
    u, _, res, n_iter = _polish(guess(grid), coeff, grid, b, p, tol)
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

# Step cap of the minimizer's normalized gradient flow, and the least
# fraction of its full step at which each update of the Newton run before
# the flow must lower the residual.
_FLOW_MAX_ITER = 40000
_FIRST_MIN_SCALE = 0.125


def constrained_minimizer(q: float, params: ModelParams,
                          grid: RadialGrid | None = None,
                          ball_radius: float | None = None,
                          tol: float = 1e-8) -> GroundStateResult:
    """Energy minimizer at prescribed mass q: a bordered Newton from the
    start, and a normalized gradient flow where that Newton is rejected.

    The start is exp(-gamma r^2/2) normalized to mass q, at the multiplier
    of the inner-product identity omega q = P - ||grad u||^2
    - gamma^2 ||x u||^2, which is exact at stationarity.  The bordered
    Newton (Keller, in Applications of Bifurcation Theory, 1977) runs from
    it first and gives up at the first update that lowers the sup
    residual at none of 1, 1/2, 1/4 and 1/8 (_FIRST_MIN_SCALE) of its full
    step.  Its state is returned
    where it passes every exit that the flow's state must pass: _polish's
    checks, ||grad u||^2 at most 1e4 times its start, omega h^2 <= 1e-2
    without a ball, and the ball check below.

    Otherwise the normalized gradient flow (Bao & Du, SIAM J. Sci.
    Comput. 25, 2004) runs from the same start: semi-implicit treatment of
    the stiff linear operator, explicit nonlinearity, renormalization to
    mass q each step.  It hands its state to the same Newton once the sup
    residual is below max(sqrt(tol), 100 tol).  It is a collapse when
    ||grad u||^2 has risen for 50 steps in a row above 25 times its start,
    when it passes 1e4 times its start, or, without a ball, when omega h^2
    passes 1e-2 (a state under 10 h wide, which the mesh cannot resolve
    at any power).  A collapse raises EnergyUnboundedError at p >= p_c
    without a ball, a ConvergenceError naming h below p_c, and a
    ConvergenceError naming the admissible range with a ball.  A flow still short of the stop after
    _FLOW_MAX_ITER steps raises ConvergenceError.

    With ball_radius set this is the local variational problem on the ball
    ||u||_H^2 <= ball_radius; the constraint set is nonempty iff
    q <= ball_radius / (gamma N), and the minimizer must end up strictly
    inside the ball (checked a posteriori with a 1% margin).

    iterations is the first Newton's update count where its state is
    returned; otherwise it is the flow's steps plus the updates of the
    Newton after them, as if the first Newton had not run.
    """
    if grid is None:
        grid = default_grid(params)
    _check_entry(params, grid, tol=tol, q=q, ball_radius=ball_radius)
    if ball_radius is not None and q > ball_radius / (params.gamma * params.dim):
        raise ConstraintEmptyError(
            f"constraint set empty: q = {q} exceeds ball_radius/(gamma N) = "
            f"{ball_radius / (params.gamma * params.dim)}")

    w = grid.weights
    r2 = grid.r_pow(2.0)
    dim, b, p, gamma = params.dim, params.b, params.p, params.gamma
    trap_coeff = gamma ** 2 * r2

    u = np.exp(-gamma * r2 / 2.0)
    u *= math.sqrt(q / float(dot(w, u * u)))
    m = _moments(u, grid, b, p)
    g0, omega = m.G, m.multiplier(gamma)
    # without a ball, a state under 10 h wide is a collapse too
    width_cap = 1e-2 / grid.h ** 2 if ball_radius is None else math.inf
    ball_cap = math.inf if ball_radius is None else 0.99 * ball_radius

    try:
        v, nu, res, n_newton = _polish(u, trap_coeff, grid, b, p, tol, q,
                                       omega, min_scale=_FIRST_MIN_SCALE)
    except ConvergenceError:
        pass        # the flow runs
    else:
        mv = _moments(v, grid, b, p)
        if (mv.G <= 1e4 * g0 and nu <= width_cap
                and mv.h_norm_sq(gamma, 0.0) <= ball_cap):
            return _result(params, grid, v, gamma, nu, res, n_newton)

    # Multiplier-shifted semi-implicit step: with the current multiplier in
    # the implicit operator, discrete stationary states are exact fixed
    # points of the normalized step (the unshifted variant stalls at an
    # O(dtau)-biased profile).
    dtau = 0.5
    g_prev = g0
    grow = 0
    flow_tol = max(math.sqrt(tol), 100.0 * tol)
    for it in range(1, _FLOW_MAX_ITER + 1):
        solve = factor_operator(
            grid, trap_coeff + max(omega, -gamma * dim), scale=dtau, shift=1.0)
        u = solve(u + dtau * nonlinearity(u, grid, b, p))
        u *= math.sqrt(q / float(dot(w, u * u)))
        m = _moments(u, grid, b, p)
        g = m.G
        if g > g_prev * (1.0 + 1e-10) and g > 25.0 * g0:
            grow += 1
        else:
            grow = 0
        g_prev = g
        omega = m.multiplier(gamma)
        # gentle monotone divergence, a catastrophic dive onto a grid-
        # concentrated state (the unbounded direction collapses within a few
        # steps, then saturates at the mesh scale), or a state past width_cap
        if grow >= 50 or g > 1e4 * g0 or omega > width_cap:
            if params.criticality == "subcritical":
                raise ConvergenceError(
                    f"descent diverged below p_c: the state collapsed to the "
                    f"mesh scale h = {grid.h}")
            if ball_radius is None:
                raise EnergyUnboundedError(
                    f"energy unbounded: the descent collapses at h = "
                    f"{grid.h} (p >= p_c without a ball constraint)")
            raise ConvergenceError(
                "descent diverged; the mass target is outside the "
                "admissible range for this constraint")
        res = float(np.max(np.abs(
            stationary_residual(u, grid, trap_coeff + omega, b, p))))
        if res < flow_tol:
            break
    else:
        raise ConvergenceError(
            f"nonconvergence: {_FLOW_MAX_ITER} descent steps without "
            f"stationarity")

    u, omega, res, n_newton = _polish(u, trap_coeff, grid, b, p, tol, q, omega)
    if ball_radius is not None:
        hsq = _moments(u, grid, b, p).h_norm_sq(gamma, 0.0)
        if hsq > ball_cap:
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
