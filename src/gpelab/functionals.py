"""Scalar functionals on the energy space and the sign-set classification.

Conventions (all integrals over R^N, radial):
    P(u)      = int |x|^(-b) |u|^(p+1)
    E(u)      = 1/2 ||grad u||^2 + gamma^2/2 ||x u||^2 - P(u)/(p+1)
    ||u||_H^2 = ||grad u||^2 + gamma^2 ||x u||^2 + omega ||u||^2
    S(u)      = E(u) + omega/2 M(u) = 1/2 ||u||_H^2 - P(u)/(p+1)
    K(u)      = ||u||_H^2 - P(u)
    I(u)      = ||grad u||^2 - gamma^2 ||x u||^2 - c_I P(u),
                c_I = (N(p-1) + 2b) / (2(p+1))
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (ModelParams, ParameterError, RadialField, apply_laplacian,
                   grad_norm_sq, mass, nonlinearity, variance)

__all__ = [
    "AmbiguousSignError", "FunctionalReport", "SetLabel",
    "potential", "energy", "energy_gradient", "h_omega_norm_sq",
    "action", "nehari", "virial", "virial_coefficient",
    "weinstein", "gn_slack", "report", "classify",
]


class AmbiguousSignError(ValueError):
    """A strict sign test fell inside the certification band."""


def _check(u: RadialField, params: ModelParams) -> None:
    if u.grid.dim != params.dim:
        raise ParameterError(
            f"grid dim {u.grid.dim} differs from params dim {params.dim}")


def potential(u: RadialField, params: ModelParams) -> float:
    """P(u) >= 0; strictly positive iff u is not identically zero."""
    _check(u, params)
    g = u.grid
    return float(np.sum(g.weights * g.r_pow(-params.b)
                        * np.abs(u.values) ** (params.p + 1)))


def energy(u: RadialField, params: ModelParams, coupling: float = 1.0) -> float:
    """Conserved energy; `coupling` scales the nonlinear term (0 = linear)."""
    _check(u, params)
    val = 0.5 * grad_norm_sq(u) + 0.5 * params.gamma ** 2 * variance(u)
    if coupling != 0.0:
        val -= coupling * potential(u, params) / (params.p + 1.0)
    return val


def energy_gradient(u: RadialField, params: ModelParams,
                    coupling: float = 1.0) -> np.ndarray:
    """L^2 gradient of the energy: (-Lap + gamma^2 r^2) u - |x|^(-b)|u|^(p-1)u.

    Matches centered finite differences of `energy` along any direction v:
    d/de E(u + e v) = 2 Re <grad, v>_w with the node quadrature weights,
    because grad_norm_sq is exactly the Laplacian quadratic form.
    """
    _check(u, params)
    g = u.grid
    out = -apply_laplacian(u.values, g) + (params.gamma ** 2 * g.r ** 2) * u.values
    if coupling != 0.0:
        out -= coupling * nonlinearity(u.values, g, params.b, params.p)
    return out


def h_omega_norm_sq(u: RadialField, params: ModelParams) -> float:
    """||u||_H^2 with frequency shift omega; positive for omega > -gamma N."""
    omega = params.require_omega()
    return (grad_norm_sq(u) + params.gamma ** 2 * variance(u)
            + omega * mass(u))


def action(u: RadialField, params: ModelParams) -> float:
    return 0.5 * h_omega_norm_sq(u, params) - potential(u, params) / (params.p + 1.0)


def nehari(u: RadialField, params: ModelParams) -> float:
    return h_omega_norm_sq(u, params) - potential(u, params)


def virial_coefficient(params: ModelParams) -> float:
    """c_I = (N(p-1) + 2b) / (2(p+1)); equals 2/(p+1) at the critical power."""
    return (params.dim * (params.p - 1.0) + 2.0 * params.b) / (2.0 * (params.p + 1.0))


def virial(u: RadialField, params: ModelParams) -> float:
    _check(u, params)
    return (grad_norm_sq(u) - params.gamma ** 2 * variance(u)
            - virial_coefficient(params) * potential(u, params))


def _require_critical(params: ModelParams, what: str) -> None:
    if not params.is_critical:
        raise ParameterError(
            f"{what} is defined only at the critical power "
            f"p = {params.p_critical}, got p = {params.p}")


def weinstein(u: RadialField, params: ModelParams) -> float:
    """Interpolation quotient ||grad u||^2 ||u||^s / P(u), s = (4-2b)/N.

    Defined at the critical power only; invariant under amplitude scaling
    and mass-preserving dilation; minimized by the decaying ground profile.
    """
    _require_critical(params, "the interpolation quotient")
    P = potential(u, params)
    if P <= 0.0:
        raise ParameterError("quotient undefined for the zero field")
    s = (4.0 - 2.0 * params.b) / params.dim
    return grad_norm_sq(u) * mass(u) ** (s / 2.0) / P


def gn_slack(u: RadialField, params: ModelParams, critical_mass: float) -> float:
    """Slack of the sharp interpolation inequality at the critical power.

    Returns RHS - LHS of
        P(u) <= critical_mass^(-s/2) (2+N-b)/N ||grad u||^2 ||u||^s,
    where critical_mass is the squared L^2 norm of the decaying ground
    profile and s = (4-2b)/N.  Nonnegative up to discretization slack.
    """
    _require_critical(params, "the sharp-constant check")
    if critical_mass <= 0.0:
        raise ParameterError("critical_mass must be positive")
    s = (4.0 - 2.0 * params.b) / params.dim
    best = critical_mass ** (-s / 2.0) * (2.0 + params.dim - params.b) / params.dim
    return best * grad_norm_sq(u) * mass(u) ** (s / 2.0) - potential(u, params)


@dataclass(frozen=True)
class FunctionalReport:
    """All scalar functionals of one field at one parameter set.

    The identities action = energy + omega/2 mass and
    nehari = h_omega_norm_sq - potential hold by construction.
    """

    energy: float
    potential: float
    mass: float
    action: float
    nehari: float
    virial: float
    h_omega_norm_sq: float
    weinstein: float | None = None


def report(u: RadialField, params: ModelParams) -> FunctionalReport:
    _check(u, params)
    P = potential(u, params)
    m = mass(u)
    g = grad_norm_sq(u)
    v = variance(u)
    omega = params.require_omega()
    H = g + params.gamma ** 2 * v + omega * m
    E = 0.5 * g + 0.5 * params.gamma ** 2 * v - P / (params.p + 1.0)
    J = None
    if params.is_critical and P > 0.0:
        s = (4.0 - 2.0 * params.b) / params.dim
        J = g * m ** (s / 2.0) / P
    return FunctionalReport(
        energy=E, potential=P, mass=m,
        action=0.5 * H - P / (params.p + 1.0),
        nehari=H - P,
        virial=g - params.gamma ** 2 * v - virial_coefficient(params) * P,
        h_omega_norm_sq=H, weinstein=J)


class SetLabel(enum.Enum):
    """Sign classification of a field against an action level d.

    For action < d the admissible region splits into R_PLUS (nehari > 0),
    K_PLUS (nehari < 0, virial > 0) and K_MINUS (nehari < 0, virial < 0);
    R_MINUS_ONLY marks nehari < 0 with the virial sign not certifiable.
    """

    K_MINUS = "K_minus"
    K_PLUS = "K_plus"
    R_PLUS = "R_plus"
    R_MINUS_ONLY = "R_minus_only"
    OUTSIDE = "outside"


def classify(u: RadialField, params: ModelParams, d: float,
             band_rel: float = 1e-9) -> SetLabel:
    """Assign the sign-set label of u relative to the level d > 0.

    The strict inequalities are certified outside a band of relative width
    `band_rel` (scaled by ||u||_H^2).  A nehari value inside the band
    raises AmbiguousSignError; a virial value inside the band with
    certified nehari < 0 degrades to R_MINUS_ONLY.
    """
    if d <= 0.0:
        raise ParameterError("the level d must be positive")
    S = action(u, params)
    if S >= d:
        return SetLabel.OUTSIDE
    H = h_omega_norm_sq(u, params)
    band = band_rel * abs(H)
    K = nehari(u, params)
    if abs(K) < band:
        raise AmbiguousSignError(
            f"nehari functional {K} inside the certification band {band}")
    if K > 0.0:
        return SetLabel.R_PLUS
    I = virial(u, params)
    if abs(I) < band:
        return SetLabel.R_MINUS_ONLY
    return SetLabel.K_PLUS if I > 0.0 else SetLabel.K_MINUS
