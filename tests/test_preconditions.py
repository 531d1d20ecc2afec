"""Each precondition has one check in gpelab.core, and every entry point
that needs it raises the same error: ModelParams.require_critical for the
critical power, ModelParams.require_critical_or_larger for p >= p_c,
ModelParams.require_grid for the grid's dimension,
require_positive_finite for positive, finite inputs, require_dimension
for the dimension itself and require_count for a count.  A failed
precondition is a PreconditionError; an outcome of work is not, even
where it is a ParameterError."""

import math
import warnings

import numpy as np
import pytest

from gpelab.closedforms import (BlowupFamilyParams, discrete_oscillator_mode,
                                lens_inverse, minimal_mass_initial,
                                minimal_mass_solution, oscillator_mode)
from gpelab.core import (ConvergenceError, GridMismatchError, ModelParams,
                         ParameterError, PreconditionError, RadialField,
                         RadialGrid, require_positive_finite, validate_params)
from gpelab import experiments
from gpelab.evolve import EvolveConfig, evolve, predict_collapse_time
from gpelab.experiments import (estimate_d_n_upper, estimate_d_omega,
                                estimate_levels, threshold_sweep)
from gpelab.functionals import (energy, energy_gradient, gn_slack, potential,
                                weinstein)
from gpelab.groundstate import (ConstraintEmptyError, EnergyUnboundedError,
                                constrained_minimizer, solve_bound_state,
                                solve_soliton)

from corpus import H_COARSE, bound_state_draws

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
        with pytest.raises(PreconditionError) as info:
            CRITICAL_ONLY[what](small_field, params_supercritical)
        msg = str(info.value)
        assert msg.startswith(what)
        assert f"p = {params_supercritical.p_critical}" in msg
        assert msg.endswith(f"got p = {params_supercritical.p}")

    def test_critical_passes(self, params_critical):
        params_critical.require_critical("anything")


class TestCriticalOrLarger:
    def test_subcritical_levels_rejected_naming_the_operation(
            self, small_field, params_subcritical):
        with pytest.raises(PreconditionError) as info:
            estimate_levels(params_subcritical, small_field.grid)
        msg = str(info.value)
        assert msg.startswith("the level estimates needs p >= the critical "
                              f"power {params_subcritical.p_critical}")
        assert msg.endswith(f"got p = {params_subcritical.p}")

    def test_subcritical_cross_level_rejected_before_any_work(self):
        # every subcritical draw of the corpus, with its bound state where
        # the solve returns one: the check comes before the state's moments,
        # which overflowed at draw 115 (N = 4, b = 0.02, p = 1.0198), and
        # before lam*, which was 2.6e67 at draw 41
        subcritical = [params for params in bound_state_draws()
                       if params.criticality == "subcritical"]
        for params in subcritical:
            grid = RadialGrid(h=H_COARSE, rmax=8.0, dim=params.dim)
            try:
                phi = solve_bound_state(params, grid).profile
            except ConvergenceError:
                phi = RadialField(grid, np.exp(-grid.r ** 2 / 2.0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(PreconditionError) as info:
                    estimate_d_n_upper(phi, params)
            assert str(info.value).startswith(
                "the cross-constrained level needs p >= the critical power")
        assert len(subcritical) == 62

    def test_critical_and_supercritical_pass(self, params_critical,
                                             params_supercritical):
        params_critical.require_critical_or_larger("anything")
        params_supercritical.require_critical_or_larger("anything")


GRID_AND_PARAMS = {
    "energy": lambda g, p: energy(RadialField.zeros(g), p),
    "potential": lambda g, p: potential(RadialField.zeros(g), p),
    "energy_gradient": lambda g, p: energy_gradient(RadialField.zeros(g), p),
    "evolve": lambda g, p: evolve(RadialField.zeros(g), p,
                                  EvolveConfig(dt=1e-3, t_end=0.01)),
    "oscillator_mode": lambda g, p: oscillator_mode(p, g),
    "discrete_oscillator_mode": lambda g, p: discrete_oscillator_mode(p, g),
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
        with pytest.raises(PreconditionError,
                           match=f"x must be positive and finite, got {bad}"):
            require_positive_finite("x", bad)

    @pytest.mark.parametrize("good", [1e-300, 1.0, 1e300, 3])
    def test_accepted(self, good):
        require_positive_finite("x", good)


class TestDimension:
    @pytest.mark.parametrize("bad", [0, -1, 2.5, "3"])
    @pytest.mark.parametrize("build", [
        lambda dim: ModelParams(dim=dim, b=0.5, p=2.0),
        lambda dim: validate_params(dim=dim, b=0.5, p=2.0),
        lambda dim: RadialGrid(dim=dim, **SMALL),
    ], ids=["ModelParams", "validate_params", "RadialGrid"])
    def test_one_message(self, build, bad):
        with pytest.raises(PreconditionError) as info:
            build(bad)
        assert str(info.value) == f"dim must be an integer >= 1, got {bad!r}"


def _levels_before_the_solve(params, grid, n_random):
    # the count is checked before the bound state is solved
    def solve(*args, **kwargs):
        raise AssertionError("estimate_levels solved before its count check")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "solve_bound_state", solve)
        estimate_levels(params, grid, n_random=n_random)


# call on (params, grid, reference) -> the message of its failed count
COUNTS = {
    "n_random=0": (lambda p, g, ref: estimate_d_omega(p, g, n_random=0),
                   "n_random must be >= 1"),
    "n_random=-2": (lambda p, g, ref: estimate_d_omega(p, g, n_random=-2),
                    "n_random must be >= 1"),
    "n_random=-2 with a reference": (
        lambda p, g, ref: estimate_d_omega(p, g, reference=ref, n_random=-2),
        "n_random must be >= 0"),
    "n_random=2.5": (lambda p, g, ref: estimate_d_omega(p, g, n_random=2.5),
                     "n_random must be an integer, got 2.5"),
    "levels n_random=2.5": (
        lambda p, g, ref: _levels_before_the_solve(p, g, 2.5),
        "n_random must be an integer, got 2.5"),
    "record_every=0": (
        lambda p, g, ref: EvolveConfig(dt=1e-3, t_end=0.1, record_every=0),
        "record_every must be >= 1"),
    "record_every=2.0": (
        lambda p, g, ref: EvolveConfig(dt=1e-3, t_end=0.1, record_every=2.0),
        "record_every must be an integer, got 2.0"),
}


class TestCount:
    @pytest.fixture(scope="class")
    def coarse(self, params_critical):
        grid = RadialGrid(h=1e-2, rmax=8.0, dim=3)
        return grid, solve_bound_state(params_critical, grid).profile

    @pytest.mark.parametrize("case", sorted(COUNTS))
    def test_one_message(self, params_critical, coarse, case):
        call, message = COUNTS[case]
        with pytest.raises(PreconditionError) as info:
            call(params_critical, *coarse)
        assert str(info.value) == message

    def test_no_random_trial_with_a_reference(self, params_critical, coarse):
        grid, ref = coarse
        assert estimate_d_omega(params_critical, grid, reference=ref,
                                n_random=0) == estimate_d_omega(
            params_critical, grid, reference=ref, n_random=3)


def _empty_cross_window():
    # lam* = 0.99276 < 1: the draw of TestCrossLevel's empty window
    params = ModelParams(dim=1, b=0.878, p=5.7334, gamma=1.0, omega=4.279)
    phi = solve_bound_state(params, RadialGrid(1e-2, 8.0, 1)).profile
    estimate_d_n_upper(phi, params)


# case -> (error class, message, call)
OUTCOMES = {
    "constraint_empty": (
        ConstraintEmptyError, "constraint set empty",
        lambda: constrained_minimizer(0.5, ModelParams(dim=3, b=0.5, p=2.5),
                                      RadialGrid(dim=3, **SMALL),
                                      ball_radius=1.0)),
    "empty_cross_window": (
        ParameterError, r"window \(1, lam\*\) is empty", _empty_cross_window),
    "energy_unbounded": (
        EnergyUnboundedError, "energy unbounded",
        lambda: constrained_minimizer(70.0, ModelParams(dim=3, b=0.5, p=2.0),
                                      RadialGrid(h=1e-2, rmax=8.0, dim=3))),
}


@pytest.mark.parametrize("case", sorted(OUTCOMES))
def test_outcome_errors_are_not_preconditions(case):
    cls, message, call = OUTCOMES[case]
    with pytest.raises(cls, match=message) as info:
        call()
    assert not isinstance(info.value, PreconditionError)
