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
from typing import NamedTuple

import numpy as np

from .core import (ModelParams, ParameterError, RadialField, apply_laplacian,
                   gradient_sq, nonlinearity)

__all__ = [
    "AmbiguousSignError", "FunctionalReport", "SetLabel",
    "potential", "energy", "energy_gradient", "h_omega_norm_sq",
    "action", "nehari", "virial", "virial_coefficient",
    "weinstein", "gn_slack", "report", "classify",
]


class AmbiguousSignError(ValueError):
    """A strict sign test fell inside the certification band."""


class _Moments(NamedTuple):
    """M = ||u||^2, G = ||grad u||^2, V = ||x u||^2 and P of one field; each
    functional is a formula on them with explicit gamma, omega and coupling."""

    M: float
    G: float
    V: float
    P: float

    def energy(self, p, gamma, coupling):
        return (0.5 * self.G + 0.5 * gamma ** 2 * self.V
                - coupling * self.P / (p + 1.0))

    def h_norm_sq(self, gamma, omega):
        return self.G + gamma ** 2 * self.V + omega * self.M

    def action(self, p, gamma, omega):
        return 0.5 * self.h_norm_sq(gamma, omega) - self.P / (p + 1.0)

    def nehari(self, gamma, omega):
        return self.h_norm_sq(gamma, omega) - self.P

    def virial(self, gamma, c_I):
        return self.G - gamma ** 2 * self.V - c_I * self.P

    def weinstein(self, dim, b):
        s = (4.0 - 2.0 * b) / dim
        return self.G * self.M ** (s / 2.0) / self.P

    def multiplier(self, gamma):
        """omega of a stationary state: pairing its equation with u."""
        return (self.P - self.G - gamma ** 2 * self.V) / self.M

    def pohozaev(self, dim, b, p, gamma, omega):
        """Residuals of the identities of -Lap u + (omega + gamma^2 r^2) u =
        r^(-b)|u|^(p-1)u paired with u (nehari) and with x . grad u."""
        return (self.nehari(gamma, omega),
                (2.0 - dim) / 2.0 * self.G - dim * omega / 2.0 * self.M
                - (dim + 2.0) / 2.0 * gamma ** 2 * self.V
                + (dim - b) / (p + 1.0) * self.P)


def _moments(values, grid, b, p) -> _Moments:
    """(M, G, V, P) of node samples by the node quadrature; P is
    int r^(-b)|u|^(p+1).  The only place these integrals are written."""
    modulus = np.abs(values)
    density = modulus ** 2
    return _Moments(
        M=float(np.sum(grid.weights * density)),
        G=gradient_sq(values, grid),
        V=float(np.sum(grid.weighted_r_pow(2.0) * density)),
        P=float(np.sum(grid.weighted_r_pow(-b) * modulus ** (p + 1))))


def _field_moments(u: RadialField, params: ModelParams) -> _Moments:
    params.require_grid(u.grid)
    return _moments(u.values, u.grid, params.b, params.p)


def potential(u: RadialField, params: ModelParams) -> float:
    """P(u) >= 0; strictly positive iff u is not identically zero."""
    return _field_moments(u, params).P


def energy(u: RadialField, params: ModelParams, coupling: float = 1.0) -> float:
    """Conserved energy; `coupling` scales the nonlinear term (0 = linear)."""
    return _field_moments(u, params).energy(params.p, params.gamma, coupling)


def energy_gradient(u: RadialField, params: ModelParams,
                    coupling: float = 1.0) -> np.ndarray:
    """L^2 gradient of the energy: (-Lap + gamma^2 r^2) u - |x|^(-b)|u|^(p-1)u.

    Matches centered finite differences of `energy` along any direction v:
    d/de E(u + e v) = 2 Re <grad, v>_w with the node quadrature weights,
    because grad_norm_sq is exactly the Laplacian quadratic form.
    """
    params.require_grid(u.grid)
    g = u.grid
    out = (-apply_laplacian(u.values, g)
           + (params.gamma ** 2 * g.r_pow(2.0)) * u.values)
    if coupling != 0.0:
        out -= coupling * nonlinearity(u.values, g, params.b, params.p)
    return out


def h_omega_norm_sq(u: RadialField, params: ModelParams) -> float:
    """||u||_H^2 with frequency shift omega; positive for omega > -gamma N."""
    return _field_moments(u, params).h_norm_sq(params.gamma,
                                               params.require_omega())


def action(u: RadialField, params: ModelParams) -> float:
    return _field_moments(u, params).action(params.p, params.gamma,
                                            params.require_omega())


def nehari(u: RadialField, params: ModelParams) -> float:
    return _field_moments(u, params).nehari(params.gamma,
                                            params.require_omega())


def virial_coefficient(params: ModelParams) -> float:
    """c_I = (N(p-1) + 2b) / (2(p+1)); equals 2/(p+1) at the critical power."""
    return (params.dim * (params.p - 1.0) + 2.0 * params.b) / (2.0 * (params.p + 1.0))


def virial(u: RadialField, params: ModelParams) -> float:
    return _field_moments(u, params).virial(params.gamma,
                                            virial_coefficient(params))


def weinstein(u: RadialField, params: ModelParams) -> float:
    """Interpolation quotient ||grad u||^2 ||u||^s / P(u), s = (4-2b)/N.

    Defined at the critical power only; invariant under amplitude scaling
    and mass-preserving dilation; minimized by the decaying ground profile.
    """
    params.require_critical("the interpolation quotient")
    m = _field_moments(u, params)
    if m.P <= 0.0:
        raise ParameterError("quotient undefined for the zero field")
    return m.weinstein(params.dim, params.b)


def gn_slack(u: RadialField, params: ModelParams, critical_mass: float) -> float:
    """Slack of the sharp interpolation inequality at the critical power.

    Returns RHS - LHS of
        P(u) <= critical_mass^(-s/2) (2+N-b)/N ||grad u||^2 ||u||^s,
    where critical_mass is the squared L^2 norm of the decaying ground
    profile and s = (4-2b)/N.  Nonnegative up to discretization slack.
    """
    params.require_critical("the sharp-constant check")
    if critical_mass <= 0.0:
        raise ParameterError("critical_mass must be positive")
    m = _field_moments(u, params)
    s = (4.0 - 2.0 * params.b) / params.dim
    best = critical_mass ** (-s / 2.0) * (2.0 + params.dim - params.b) / params.dim
    return best * m.G * m.M ** (s / 2.0) - m.P


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
    m = _field_moments(u, params)
    omega, gamma, p = params.require_omega(), params.gamma, params.p
    J = (m.weinstein(params.dim, params.b)
         if params.is_critical and m.P > 0.0 else None)
    return FunctionalReport(
        energy=m.energy(p, gamma, 1.0), potential=m.P, mass=m.M,
        action=m.action(p, gamma, omega), nehari=m.nehari(gamma, omega),
        virial=m.virial(gamma, virial_coefficient(params)),
        h_omega_norm_sq=m.h_norm_sq(gamma, omega), weinstein=J)


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
    m = _field_moments(u, params)
    omega = params.require_omega()
    if m.action(params.p, params.gamma, omega) >= d:
        return SetLabel.OUTSIDE
    band = band_rel * abs(m.h_norm_sq(params.gamma, omega))
    K = m.nehari(params.gamma, omega)
    if abs(K) < band:
        raise AmbiguousSignError(
            f"nehari functional {K} inside the certification band {band}")
    if K > 0.0:
        return SetLabel.R_PLUS
    I = m.virial(params.gamma, virial_coefficient(params))
    if abs(I) < band:
        return SetLabel.R_MINUS_ONLY
    return SetLabel.K_PLUS if I > 0.0 else SetLabel.K_MINUS
