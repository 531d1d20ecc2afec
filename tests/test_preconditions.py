"""Each precondition has one check in gpelab.core, and every entry point
that needs it raises the same error: ModelParams.require_critical for the
critical power, ModelParams.require_grid for the grid's dimension and
require_positive_finite for positive, finite inputs."""

import math

import numpy as np
import pytest

from gpelab.closedforms import (BlowupFamilyParams, lens_inverse,
                                minimal_mass_initial, minimal_mass_solution,
                                oscillator_mode)
from gpelab.core import (GridMismatchError, ParameterError, RadialField,
                         RadialGrid, require_positive_finite)
from gpelab.evolve import EvolveConfig, evolve, predict_collapse_time
from gpelab.experiments import threshold_sweep
from gpelab.functionals import (energy, energy_gradient, gn_slack, potential,
                                weinstein)
from gpelab.groundstate import (constrained_minimizer, solve_bound_state,
                                solve_soliton)

SMALL = dict(h=0.05, rmax=2.0)


@pytest.fixture(scope="module")
def small_field():
    grid = RadialGrid(dim=3, **SMALL)
    return RadialField(grid, np.exp(-grid.r ** 2))


FAMILY = BlowupFamilyParams(theta0=0.3, T=0.5, lambda0=1.0)

CRITICAL_ONLY = {
    "the decaying ground profile": lambda u, p: solve_soliton(p),
    "collapse-time prediction": lambda u, p: predict_collapse_time(u, p),
    "the threshold sweep": lambda u, p: threshold_sweep(
        u, p, u.grid, [1.0], [1.0], EvolveConfig(dt=1e-3, t_end=0.1)),
    "the lens equivalence": lambda u, p: lens_inverse(
        lambda r, s: np.exp(-r ** 2), 0.1, p, u.grid),
    "the minimal-mass solution": lambda u, p: minimal_mass_solution(
        FAMILY, 0.0, p, u, u.grid),
    "the minimal-mass initial state": lambda u, p: minimal_mass_initial(
        FAMILY, p, u, u.grid),
    "the interpolation quotient": lambda u, p: weinstein(u, p),
    "the sharp-constant check": lambda u, p: gn_slack(u, p, 1.0),
}


class TestCriticalPower:
    @pytest.mark.parametrize("what", sorted(CRITICAL_ONLY))
    def test_supercritical_rejected_naming_the_operation(
            self, small_field, params_supercritical, what):
        with pytest.raises(ParameterError) as info:
            CRITICAL_ONLY[what](small_field, params_supercritical)
        msg = str(info.value)
        assert msg.startswith(what)
        assert f"p = {params_supercritical.p_critical}" in msg
        assert msg.endswith(f"got p = {params_supercritical.p}")

    def test_critical_passes(self, params_critical):
        params_critical.require_critical("anything")


GRID_AND_PARAMS = {
    "energy": lambda g, p: energy(RadialField.zeros(g), p),
    "potential": lambda g, p: potential(RadialField.zeros(g), p),
    "energy_gradient": lambda g, p: energy_gradient(RadialField.zeros(g), p),
    "evolve": lambda g, p: evolve(RadialField.zeros(g), p,
                                  EvolveConfig(dt=1e-3, t_end=0.01)),
    "oscillator_mode": lambda g, p: oscillator_mode(p, g),
    "solve_soliton": lambda g, p: solve_soliton(p, g),
    "solve_bound_state": lambda g, p: solve_bound_state(p, g),
    "constrained_minimizer": lambda g, p: constrained_minimizer(1.0, p, g),
}


class TestGridDimension:
    @pytest.mark.parametrize("entry", sorted(GRID_AND_PARAMS))
    def test_dim_mismatch_is_a_parameter_error(self, params_critical, entry):
        grid = RadialGrid(dim=2, **SMALL)
        with pytest.raises(GridMismatchError,
                           match="grid dim 2 differs from params dim 3") as info:
            GRID_AND_PARAMS[entry](grid, params_critical)
        assert isinstance(info.value, ParameterError)
        assert isinstance(info.value, ValueError)


class TestPositiveFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0,
                                     -1.0])
    def test_rejected(self, bad):
        with pytest.raises(ParameterError,
                           match=f"x must be positive and finite, got {bad}"):
            require_positive_finite("x", bad)

    @pytest.mark.parametrize("good", [1e-300, 1.0, 1e300, 3])
    def test_accepted(self, good):
        require_positive_finite("x", good)
