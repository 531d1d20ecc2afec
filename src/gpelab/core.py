"""Model parameters, radial grids, fields, quadrature and the basic norms.

Everything here is radially symmetric: a field u(r) on a cell-centered mesh
stands for the function u(|x|) on R^N, and integrals carry the surface
measure of the unit sphere times r^(N-1).

All objects are immutable after construction; the operations are pure
functions, so they are safe to call from concurrent workers.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import gamma as _gamma_fn
from typing import Callable, Mapping

import numpy as np
from scipy.linalg.blas import ztbsv
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs, zgttrf

CRITICALITY_TOL = 1e-12

SUBCRITICAL = "subcritical"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"


class ParameterError(ValueError):
    """A model, grid or solver parameter violates its admissible range."""


class PreconditionError(ParameterError):
    """A scalar, parameter, mesh or step setting outside an operation's
    domain, found before the operation does any work: the input's fault,
    not the outcome's."""


class GridMismatchError(ParameterError):
    """Fields, sample arrays or model parameters live on different grids."""


class ConvergenceError(RuntimeError):
    """A solver failed to reach its tolerance."""


def require_positive_finite(name: str, value) -> None:
    """Raise PreconditionError naming `name` unless 0 < value < inf (nan
    fails)."""
    if not 0.0 < value < np.inf:
        raise PreconditionError(
            f"{name} must be positive and finite, got {value}")


def require_count(name: str, value, minimum: int) -> None:
    """Raise PreconditionError naming `name` unless value is an integer
    (numbers.Integral) >= minimum."""
    if not isinstance(value, numbers.Integral):
        raise PreconditionError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise PreconditionError(f"{name} must be >= {minimum}")


def require_dimension(dim) -> None:
    """Raise PreconditionError unless dim is an integer >= 1."""
    if not (isinstance(dim, int) and dim >= 1):
        raise PreconditionError(f"dim must be an integer >= 1, got {dim!r}")


@dataclass(frozen=True)
class ModelParams:
    """Physical and analytic parameters of the trapped inhomogeneous NLS.

    dim    spatial dimension N >= 1
    b      singularity exponent of the |x|^(-b) factor, 0 < b < min(2, N)
    p      nonlinearity power, 1 < p < p_max
    gamma  trap strength, > 0
    omega  frequency of the stationary problems; optional, must satisfy
           omega > -gamma*N when present
    """

    dim: int
    b: float
    p: float
    gamma: float = 1.0
    omega: float | None = None

    def __post_init__(self):
        require_dimension(self.dim)
        bmax = min(2.0, float(self.dim))
        if not (0.0 < self.b < bmax):
            raise PreconditionError(
                f"b must satisfy 0 < b < min(2, N) = {bmax}, got b = {self.b}")
        if not (1.0 < self.p < self.p_max):
            raise PreconditionError(
                f"p must satisfy 1 < p < {self.p_max}, got p = {self.p}")
        require_positive_finite("gamma", self.gamma)
        if (self.omega is not None
                and not -self.gamma * self.dim < self.omega < np.inf):
            raise PreconditionError(
                f"omega must be finite and exceed -gamma*N = "
                f"{-self.gamma * self.dim}, got omega = {self.omega}")

    @property
    def p_max(self) -> float:
        """Upper admissible power: 1 + (4-2b)/(N-2) for N >= 3, else inf."""
        if self.dim >= 3:
            return 1.0 + (4.0 - 2.0 * self.b) / (self.dim - 2)
        return np.inf

    @property
    def p_critical(self) -> float:
        """Mass-critical power 1 + (4-2b)/N."""
        return 1.0 + (4.0 - 2.0 * self.b) / self.dim

    @property
    def criticality(self) -> str:
        d = self.p - self.p_critical
        if abs(d) <= CRITICALITY_TOL:
            return CRITICAL
        return SUBCRITICAL if d < 0 else SUPERCRITICAL

    @property
    def is_critical(self) -> bool:
        return self.criticality == CRITICAL

    @property
    def omega_min(self) -> float:
        """Open lower bound for admissible frequencies."""
        return -self.gamma * self.dim

    def require_omega(self) -> float:
        if self.omega is None:
            raise PreconditionError("this operation needs params.omega")
        return self.omega

    def require_critical(self, what: str) -> None:
        """Raise PreconditionError unless p is the mass-critical power;
        `what` names the operation that needs it."""
        if not self.is_critical:
            raise PreconditionError(
                f"{what} needs the critical power p = {self.p_critical}, "
                f"got p = {self.p}")

    def require_critical_or_larger(self, what: str) -> None:
        """Raise PreconditionError when p is below the mass-critical power;
        `what` names the operation that needs p >= p_c."""
        if self.criticality == SUBCRITICAL:
            raise PreconditionError(
                f"{what} needs p >= the critical power {self.p_critical}, "
                f"got p = {self.p}")

    def require_grid(self, grid: "RadialGrid") -> None:
        """Raise GridMismatchError unless grid has the model's dimension."""
        if grid.dim != self.dim:
            raise GridMismatchError(
                f"grid dim {grid.dim} differs from params dim {self.dim}")

    def as_dict(self) -> dict:
        return {"dim": self.dim, "b": self.b, "p": self.p,
                "gamma": self.gamma, "omega": self.omega}


def validate_params(raw: Mapping | None = None, **kwargs) -> ModelParams:
    """Build ModelParams from a mapping, rejecting unknown keys.

    Reports the critical power and the admissible upper power through the
    returned object (p_critical, p_max); raises PreconditionError naming
    the violated bound otherwise.
    """
    data = dict(raw or {})
    data.update(kwargs)
    allowed = {"dim", "b", "p", "gamma", "omega"}
    unknown = set(data) - allowed
    if unknown:
        raise PreconditionError(f"unknown parameter(s): {sorted(unknown)}")
    missing = {"dim", "b", "p"} - set(data)
    if missing:
        raise PreconditionError(f"missing parameter(s): {sorted(missing)}")
    dim = data["dim"]
    dim = int(dim) if isinstance(dim, float) and dim.is_integer() else dim
    return ModelParams(dim=dim,
                       b=float(data["b"]),
                       p=float(data["p"]),
                       gamma=float(data.get("gamma", 1.0)),
                       omega=None if data.get("omega") is None
                       else float(data["omega"]))


class RadialGrid:
    """Uniform cell-centered radial mesh on (0, rmax], excluding the origin.

    Nodes sit at r_i = (i + 1/2) h, so the factor r^(-b) is evaluable
    everywhere; the domain boundary rmax = n*h is a cell face where the
    Dirichlet condition u(rmax) = 0 is imposed.  Every integral on it is
    one inner product (dot) against the node weights (the face
    conductances for the gradient form).
    """

    def __init__(self, h: float, rmax: float, dim: int):
        require_positive_finite("h", h)
        require_positive_finite("rmax", rmax)
        n = int(round(rmax / h))
        if n < 4 or abs(n * h - rmax) > 1e-9 * rmax:
            raise PreconditionError(
                f"rmax = {rmax} must be an integer multiple (>= 4) of h = {h}")
        require_dimension(dim)
        self.h = float(h)
        self.rmax = n * self.h
        self.dim = dim
        self.n = n
        self.r = (np.arange(n) + 0.5) * self.h
        # the area omega_N of the unit sphere S^(N-1)
        self.sphere = 2.0 * np.pi ** (dim / 2.0) / _gamma_fn(dim / 2.0)
        # node quadrature weights: omega_N r^(N-1) h  (midpoint rule)
        self.weights = self.sphere * self.r ** (dim - 1) * self.h
        # The flux-form Laplacian u'' + (N-1)/r u' from the face conductances
        # r_f^(N-1): 0 at the origin face (for N = 1, 0.0**0 = 1 would put a
        # wall there), doubled at rmax by the odd ghost for u(rmax) = 0;
        # self-adjoint under the node weights.  lap_lower[i] couples row i+1
        # to column i, lap_upper[i] row i to column i+1.
        c = self.conductance = (np.arange(n + 1) * self.h) ** (dim - 1)
        c[0] = 0.0
        c[n] *= 2.0
        denom = self.r ** (dim - 1) * self.h * self.h
        self.lap_lower = c[1:n] / denom[1:]
        self.lap_diag = -(c[1:] + c[:-1]) / denom
        self.lap_upper = c[1:n] / denom[:-1]
        # -Lap symmetrized by the node weights w: W^(1/2) (-Lap) W^(-1/2)
        # has this off-diagonal (see symmetric_form)
        self.sym_offdiag = -np.sqrt(self.lap_lower * self.lap_upper)
        self.sqrt_weights = np.sqrt(self.weights)
        for a in (self.r, self.weights, c, self.lap_lower, self.lap_diag,
                  self.lap_upper, self.sym_offdiag, self.sqrt_weights):
            a.setflags(write=False)
        self._r_pow = {}
        # the mesh of spacing 2h, built on first use and then kept
        # (groundstate._coarse_mesh)
        self._coarse = None

    def __eq__(self, other):
        return (isinstance(other, RadialGrid)
                and self.h == other.h and self.n == other.n
                and self.dim == other.dim)

    def __hash__(self):
        return hash((self.h, self.n, self.dim))

    def __repr__(self):
        return f"RadialGrid(h={self.h}, rmax={self.rmax}, dim={self.dim})"

    def compatible(self, other: "RadialGrid") -> None:
        if self != other:
            raise GridMismatchError(f"grids differ: {self} vs {other}")

    def r_pow(self, e: float) -> np.ndarray:
        """r^e at the nodes, computed once per exponent (read-only)."""
        out = self._r_pow.get(e)
        if out is None:
            out = self.r ** e
            out.setflags(write=False)
            self._r_pow[e] = out
        return out


class RadialField:
    """Complex radial profile sampled on a RadialGrid.

    Values are frozen at construction; build new fields instead of mutating.
    The Dirichlet convention u(rmax) = 0 is part of the discretization (the
    boundary is a face, not a node), so only interior samples are stored.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: RadialGrid, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.n,):
            raise GridMismatchError(
                f"expected {grid.n} samples, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = values.copy()
        self.values.setflags(write=False)

    @classmethod
    def from_function(cls, grid: RadialGrid, fn: Callable) -> "RadialField":
        return cls(grid, fn(grid.r))

    @classmethod
    def zeros(cls, grid: RadialGrid) -> "RadialField":
        return cls(grid, np.zeros(grid.n))

    def __mul__(self, c) -> "RadialField":
        return RadialField(self.grid, self.values * complex(c))

    __rmul__ = __mul__

    def __add__(self, other: "RadialField") -> "RadialField":
        self.grid.compatible(other.grid)
        return RadialField(self.grid, self.values + other.values)

    def __sub__(self, other: "RadialField") -> "RadialField":
        self.grid.compatible(other.grid)
        return RadialField(self.grid, self.values - other.values)


# OpenBLAS splits a dot product over its threads above 10000 entries, which
# changes the order of the sum, and so its last bits, with the thread count
_DOT_BLOCK = 10000


def _row_dot(x, y):
    # a stack of (1, n) by (n, 1) products is one BLAS dot per row: the
    # call np.dot makes on that row alone, with its bits
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def dot(x, y, conjugate: bool = False):
    """sum_i x_i y_i (conj(x_i) y_i with conjugate) of two node arrays, with
    the same bits at every BLAS thread count: one BLAS inner product up to
    _DOT_BLOCK entries, and above that one per consecutive block of
    _DOT_BLOCK entries, added in order.  Every integral in gpelab is one
    call.  Where y is a (k, n) block of real rows (x a block or a node
    array), the result is that sum for each row, an array of k, in one
    call per block of entries, each row's bit for bit its dot alone."""
    n = x.shape[-1]
    inner = _row_dot if y.ndim > 1 else np.vdot if conjugate else np.dot
    if n <= _DOT_BLOCK:
        return inner(x, y)
    return sum(inner(x[..., i:i + _DOT_BLOCK], y[..., i:i + _DOT_BLOCK])
               for i in range(0, n, _DOT_BLOCK))


def integrate_radial(samples, grid: RadialGrid):
    """Integral over R^N of a radial integrand sampled at the nodes.

    Midpoint rule with weights omega_N r^(N-1) h; linear in the samples.
    Returns a float for real input, complex otherwise.
    """
    samples = np.asarray(samples)
    if samples.shape != (grid.n,):
        raise GridMismatchError(
            f"expected {grid.n} samples, got shape {samples.shape}")
    total = dot(grid.weights, samples)
    if np.iscomplexobj(samples):
        return complex(total)
    return float(total)


def mass(u: RadialField) -> float:
    """Squared L^2 norm of the field."""
    return float(dot(u.grid.weights, np.abs(u.values) ** 2))


def variance(u: RadialField) -> float:
    """Squared weighted norm ||x u||_{L^2}^2."""
    g = u.grid
    return float(dot(g.weights, g.r_pow(2.0) * np.abs(u.values) ** 2))


def _grad_form(x, y, grid: RadialGrid) -> complex:
    """Gradient form int grad x . conj(grad y) on node arrays, or on each
    row of (k, n) blocks.

    Staggered (face) differences paired against the face conductances:
    exactly the quadratic form of the discrete Laplacian, so pairing the
    stationary equation with u closes to machine precision.  The face at
    rmax pairs x_{n-1} with the ghost -x_{n-1} across half a cell.
    """
    dx = np.diff(x)
    dy = dx if y is x else np.diff(y)
    s = dot(dy, grid.conductance[1:grid.n] * dx, conjugate=True) / grid.h
    s += grid.conductance[grid.n] * x[..., -1] * np.conj(y[..., -1]) / grid.h
    return grid.sphere * s


def gradient_sq(values, grid: RadialGrid):
    """Squared L^2 norm of the gradient of node samples, a float, or of
    each row of a (k, n) block, an array of k."""
    g = np.real(_grad_form(values, values, grid))
    return float(g) if values.ndim == 1 else g


def grad_norm_sq(u: RadialField) -> float:
    """Squared L^2 norm of the gradient (see _grad_form)."""
    return gradient_sq(u.values, u.grid)


def sigma_norm_sq(u: RadialField) -> float:
    """Squared Sigma norm ||grad u||^2 + ||x u||^2 (trap-strength free)."""
    return grad_norm_sq(u) + variance(u)


def sigma_inner(u: RadialField, v: RadialField) -> complex:
    """Sesquilinear Sigma inner product <u, v> (conjugate on v)."""
    u.grid.compatible(v.grid)
    g = u.grid
    s = _grad_form(u.values, v.values, g)
    s += dot(g.weights, g.r_pow(2.0) * u.values * np.conj(v.values))
    return complex(s)


def node_derivative(u: RadialField) -> np.ndarray:
    """Radial derivative at the nodes by centered differences.

    Ghost values: even extension through the origin (radial regularity
    u'(0) = 0) and odd extension past rmax (Dirichlet).
    """
    padded = np.concatenate((u.values[:1], u.values, -u.values[-1:]))
    return (padded[2:] - padded[:-2]) / (2.0 * u.grid.h)


def variance_rate(values, grid: RadialGrid) -> float:
    """f' = 4 omega_N sum_f r_f^N Im(conj(u_i) (u_(i+1) - u_i)) on the
    interior faces: the gradient form's face differences and conductances,
    paired with r_f u_i.  By summation by parts, the exact time derivative
    of the discrete variance under the space-discrete flow; the rmax ghost
    face adds 0."""
    flux = grid.conductance[1:grid.n] * np.diff(values)
    s = dot((grid.r[:-1] + 0.5 * grid.h) * values[:-1], flux, conjugate=True)
    return 4.0 * grid.sphere * float(np.imag(s))


def apply_laplacian(values: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Apply the conservative radial Laplacian to node samples, or to each
    row of a (k, n) array of them."""
    out = grid.lap_diag * values
    out[..., :-1] += grid.lap_upper * values[..., 1:]
    out[..., 1:] += grid.lap_lower * values[..., :-1]
    return out


def nonlinear_rate(values, grid: RadialGrid, b: float, p: float) -> np.ndarray:
    """The focusing rate r^(-b) |u|^(p-1) at the nodes, or at the nodes of
    each row of a (k, n) array."""
    rate = np.abs(values)
    # |u|^1 is |u| itself: p = 2 skips the power
    if p != 2.0:
        rate **= p - 1.0
    rate *= grid.r_pow(-b)
    return rate


def nonlinearity(values, grid: RadialGrid, b: float, p: float) -> np.ndarray:
    """The focusing term r^(-b) |u|^(p-1) u at the nodes."""
    return nonlinear_rate(values, grid, b, p) * values


def stationary_residual(values, grid: RadialGrid, coeff, b: float,
                        p: float) -> np.ndarray:
    """-Lap u + coeff u - r^(-b) |u|^(p-1) u at the nodes."""
    return (-apply_laplacian(values, grid) + coeff * values
            - nonlinearity(values, grid, b, p))


def symmetric_form(grid: RadialGrid, coeff):
    """(diagonal, off-diagonal) of W^(1/2) (-Lap + coeff) W^(-1/2), the
    symmetric tridiagonal form of -Lap + coeff under the node weights w:
    coeff - lap_diag and -sqrt(lap_lower lap_upper).  -Lap is self-adjoint
    under w, so this form has the operator's spectrum, and its eigenvectors
    divided by sqrt(w) (grid.sqrt_weights) are the operator's."""
    return coeff - grid.lap_diag, grid.sym_offdiag


def factor_operator(grid: RadialGrid, coeff, scale=1.0, shift=0.0):
    """Factor shift + scale (-Lap + coeff) once; returns solve(rhs).

    coeff is a node array or a scalar; complex coeff, scale or shift give a
    complex factorization, real ones a real one, and solve takes right-hand
    sides of the same type.  A real operator must be positive definite, as
    the descent and gradient-flow operators 1 + step (-Lap + coeff) with
    -Lap + coeff >= 0 are: it is factored L D L' on its symmetric_form by
    LAPACK dpttrf, and solve is one dpttrs between the scalings by
    sqrt(w), for a node array or for the k columns of an (n, k) array
    (Fortran order is solved in place).  The indefinite Newton Jacobians
    are solved by solve_operator instead.  A complex zgttrf factorization
    without a row exchange is L D U', L and U' unit bidiagonal, so its
    solve is two BLAS sweeps and a scaling by 1/d, with no division inside
    a recurrence.  The
    Crank-Nicolson operator 1 + (i dt/2)(-Lap + V), V >= 0, never needs an
    exchange: it is strictly diagonally dominant with imaginary
    off-diagonals, so zgttrf's |re| + |im| pivot test never swaps.  Raises
    ConvergenceError when a real operator has a pivot that is not
    positive, a complex pivot vanishes, or a complex operator needs a row
    exchange.
    """
    # a complex scale makes the diagonal complex too
    diag = shift + scale * (coeff - grid.lap_diag)
    if not np.iscomplexobj(diag):
        d, e, info = dpttrf(diag, scale * grid.sym_offdiag)
        if info != 0:
            raise ConvergenceError(
                f"operator is not positive definite: pivot {info} of its "
                f"L D L' factorization is not positive")
        sqrt_w = grid.sqrt_weights
        sqrt_w_col = sqrt_w[:, None]

        def solve(rhs):
            s = sqrt_w if rhs.ndim == 1 else sqrt_w_col
            x = dpttrs(d, e, s * rhs, overwrite_b=1)[0]
            x /= s
            return x
        return solve

    dl, d, du, du2, ipiv, info = zgttrf(-scale * grid.lap_lower, diag,
                                        -scale * grid.lap_upper)
    if info != 0:
        raise ConvergenceError(f"operator is singular (pivot {info} vanishes)")
    if np.any(ipiv != np.arange(1, grid.n + 1)):
        raise ConvergenceError("complex operator needed a row exchange; "
                               "its solve takes unpivoted factors only")
    # BLAS band storage, in Fortran order so that ztbsv reads it in place;
    # the unit diagonals (row 0 of lower, row 1 of upper) are never read
    lower = np.zeros((2, grid.n), complex, order="F")
    lower[1, :-1] = dl
    upper = np.zeros((2, grid.n), complex, order="F")
    upper[0, 1:] = du / d[:-1]
    inv_d = 1.0 / d

    def solve(rhs):
        y = ztbsv(1, lower, rhs, lower=1, diag=1)
        y *= inv_d
        return ztbsv(1, upper, y, diag=1, overwrite_x=1)

    return solve


def solve_operator(grid: RadialGrid, coeff, rhs) -> np.ndarray:
    """Solve (-Lap + coeff) x = rhs for a real operator that may be
    indefinite (the Newton Jacobians) in one LAPACK dgtsv call: Gaussian
    elimination with partial pivoting and back substitution together, with
    no factors kept.  rhs is a node array, or an (n, k) array whose k
    columns are solved by the same call; it is left as it was.  Raises
    ConvergenceError when a pivot vanishes."""
    x, info = dgtsv(-grid.lap_lower, coeff - grid.lap_diag, -grid.lap_upper,
                    rhs, overwrite_dl=1, overwrite_d=1, overwrite_du=1)[3:]
    if info != 0:
        raise ConvergenceError(f"operator is singular (pivot {info} vanishes)")
    return x


def default_grid(params: ModelParams) -> RadialGrid:
    """Default trapped-problem mesh, h = 2e-3 and rmax = 8: gamma rmax^2 >= 40
    keeps a Gaussian tail's truncation below the quadrature error, but an
    e^(-r) tail is cut (the minimal-mass family is 4.2e-4 beyond r = 7.5;
    its t = 0.1 deviation is 5.9e-4 here, 1.0e-5 on rmax = 12)."""
    return RadialGrid(h=2e-3, rmax=8.0, dim=params.dim)


def _table_cell(x) -> str:
    if x is None:
        return ""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _write_table(path, header: str, rows,
                 metadata: dict | None = None) -> None:
    """Write a CSV table: '# key = value' metadata lines, the header, then one
    line per row with floats to 17 significant digits and None as an empty
    cell."""
    lines = [f"# {k} = {v}" for k, v in (metadata or {}).items()]
    lines.append(header)
    lines.extend(",".join(map(_table_cell, row)) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
