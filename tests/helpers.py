"""Shared verification helpers: independent residual oracles."""

import numpy as np

from gpelab.core import apply_laplacian


# Weights c_k of the eighth-order centred first derivative
# sum_k c_k (f(t + k dt) - f(t - k dt)) / dt.
_D8 = ((1, 4.0 / 5.0), (2, -1.0 / 5.0), (3, 4.0 / 105.0), (4, -1.0 / 280.0))


def gp_residual_l2(field_at, t, params, grid, free=False, coupling=1.0,
                   dt=1e-3, window=(0.05, 7.9)):
    """Weighted L2 residual of the time-dependent equation for a closed-form
    family, with the time derivative by an eighth-order centred difference
    of the family.

    The lens phases near r = 8 vary on a time scale of about 1e-3, so a
    low order needs a dt at which rounding, amplified by 1/dt, shows: on
    criterion 08's residuals (2.6e-4 at h = 2e-3) a second-order
    difference at dt = 1e-6 errs by 5.6e-9 and a fourth-order one at
    dt = 1e-3 by 8.4e-8, while eighth order at dt = 1e-3 keeps truncation
    and rounding near 1e-12 each.

    field_at(t) must return a RadialField on `grid`.  The window (fixed
    across refinements) drops the b-singular origin cells, where the
    three-point stencil cannot be second order, and the truncation wall
    cell, where the Dirichlet ghost disagrees with a non-vanishing closed
    form.
    """
    u = field_at(t).values
    dudt = sum(c * (field_at(t + k * dt).values - field_at(t - k * dt).values)
               for k, c in _D8) / dt
    lap = apply_laplacian(u, grid)
    res = 1j * dudt + lap
    if not free:
        res = res - params.gamma ** 2 * grid.r ** 2 * u
    res = res + coupling * grid.r ** (-params.b) * np.abs(u) ** (params.p - 1.0) * u
    mask = (grid.r >= window[0]) & (grid.r <= window[1])
    return float(np.sqrt(np.sum((grid.weights * np.abs(res) ** 2)[mask])))


def rel_err(x, ref):
    return abs(x - ref) / abs(ref)
