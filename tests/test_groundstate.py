import functools
import re
from dataclasses import replace

import numpy as np
import pytest

from gpelab.core import (GridMismatchError, ModelParams, ParameterError,
                         RadialField, RadialGrid, default_grid, dot,
                         factor_operator, grad_norm_sq, mass, nonlinear_rate,
                         nonlinearity, solve_operator, stationary_residual,
                         variance)
from gpelab import groundstate as gs
from gpelab.experiments import random_trial_field
from gpelab.functionals import (_moments, action, energy, h_omega_norm_sq,
                                nehari, potential, virial)
from gpelab.groundstate import (ConstraintEmptyError, ConvergenceError,
                                EnergyUnboundedError, OutsideHypothesesError,
                                _nehari_descent, _newton, _polish,
                                constrained_minimizer, load_profile,
                                save_profile, solve_bound_state,
                                solve_soliton, soliton_grid,
                                stationary_residuals, uniqueness_report)

from corpus import (H_COARSE, admissible, bound_state_draws,
                    minimizer_draws, unconstrained_draws)
from helpers import rel_err

# Frozen regression values from an independent shooting oracle
# (adaptive integrator at rtol 1e-13 + adaptive quadrature).
SOLITON_MASS = 59.95388554159379
SOLITON_GRADSQ = 119.90777108767219
SOLITON_P = 179.86165663322336
SOLITON_CENTER = 6.10565531099841
BOUND_MASS = 39.5034782823787
BOUND_CENTER = 6.804015712777717
BOUND_ACTION = 27.735789721324657


class TestSoliton:
    def test_residual_below_tolerance(self, soliton):
        assert soliton.residual_sup < 1e-8

    def test_positive_and_monotone(self, soliton):
        vals = soliton.profile.values.real
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_center_amplitude_regression(self, soliton):
        # first node sits at h/2; the profile bends like r^(2-b) there, so
        # the node value tracks the center amplitude only to ~1e-4
        assert rel_err(soliton.profile.values.real[0], SOLITON_CENTER) < 1e-3

    def test_mass_regression(self, soliton):
        assert rel_err(soliton.mass, SOLITON_MASS) < 1e-5

    def test_gradient_and_potential_regression(self, soliton, params_critical):
        assert rel_err(grad_norm_sq(soliton.profile), SOLITON_GRADSQ) < 1e-5
        assert rel_err(potential(soliton.profile, params_critical),
                       SOLITON_P) < 1e-5

    def test_scaling_identity(self, soliton, params_critical):
        # ((N+2-b)/N) ||grad Q||^2 = P(Q)
        g = grad_norm_sq(soliton.profile)
        P = potential(soliton.profile, params_critical)
        assert abs(1.5 * g - P) / P < 1e-6

    def test_pairing_identity_exact(self, soliton):
        # pairing the discrete equation with Q closes to rounding
        assert abs(soliton.pohozaev_1) < 1e-8 * SOLITON_P

    def test_requires_critical_power(self, params_subcritical):
        with pytest.raises(ParameterError):
            solve_soliton(params_subcritical)

    def test_tail_small(self, soliton):
        peak = soliton.profile.values.real[0]
        assert soliton.profile.values.real[-1] < 1e-8 * peak

    def test_coarse_mesh_center_regression(self, params_critical):
        grid = soliton_grid(params_critical, h=4e-3, rmax=16.0)
        vals = solve_soliton(params_critical, grid).profile.values.real
        assert rel_err(vals[0], SOLITON_CENTER) < 1e-3
        assert np.all(vals > 0)


class TestBoundState:
    def test_nehari_and_virial_vanish(self, bound_state, params_critical):
        H = h_omega_norm_sq(bound_state.profile, params_critical)
        assert abs(nehari(bound_state.profile, params_critical)) < 1e-6 * H
        assert abs(virial(bound_state.profile, params_critical)) < 1e-6 * H

    def test_positive_monotone(self, bound_state):
        vals = bound_state.profile.values.real
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_regressions(self, bound_state, params_critical):
        assert rel_err(bound_state.mass, BOUND_MASS) < 1e-5
        assert rel_err(bound_state.profile.values.real[0], BOUND_CENTER) < 1e-3
        assert rel_err(action(bound_state.profile, params_critical),
                       BOUND_ACTION) < 1e-5

    def test_action_positive(self, bound_state, params_critical):
        assert action(bound_state.profile, params_critical) > 0.0

    def test_omega_out_of_range(self, params_critical):
        bad = ModelParams(dim=3, b=0.5, p=2.0, gamma=1.0)
        with pytest.raises(ParameterError, match="omega"):
            ModelParams(dim=3, b=0.5, p=2.0, gamma=1.0, omega=-3.5)
        with pytest.raises(ParameterError):
            solve_bound_state(bad)  # omega missing entirely

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_one_dimension(self, p):
        params = ModelParams(dim=1, b=0.5, p=p, gamma=1.0, omega=0.0)
        res = solve_bound_state(params, default_grid(params))
        assert res.residual_sup < 1e-8

    def test_supercritical_profile(self, bound_state_super,
                                   params_supercritical):
        H = h_omega_norm_sq(bound_state_super.profile, params_supercritical)
        assert abs(nehari(bound_state_super.profile,
                          params_supercritical)) < 1e-6 * H
        assert np.all(bound_state_super.profile.values.real > 0)


class TestNontriviality:
    @pytest.mark.parametrize("dim,p,peak", [(2, 2.0, 0.069), (3, 1.15, 0.041)])
    def test_strong_singularity_state_is_nontrivial(self, dim, p, peak):
        # b close to 2: the least-action state is small but not u = 0
        params = ModelParams(dim=dim, b=1.9, p=p, gamma=1.0, omega=0.0)
        res = solve_bound_state(params, default_grid(params))
        assert np.max(res.profile.values.real) == pytest.approx(peak, rel=0.02)

    def test_newton_onto_zero_is_rejected(self, params_critical):
        grid = RadialGrid(h=4e-3, rmax=8.0, dim=3)
        coeff = grid.r ** 2
        b, p = params_critical.b, params_critical.p
        [(guess, _)] = _nehari_descent(coeff, grid, b, p)(
            [np.exp(-grid.r ** 2 / 2.0)])
        assert np.max(_polish(guess, coeff, grid, b, p, 1e-8)[0]) > 1.0
        with pytest.raises(ConvergenceError, match="trivial"):
            _polish(1e-12 * guess, coeff, grid, b, p, 1e-8)

    @pytest.mark.parametrize("values, res, match", [
        (lambda r: np.exp(-r ** 2), 1e-6, "residual 1.000e-06 above"),
        (lambda r: np.exp(-r ** 2) - 0.5, 1e-10, "not strictly positive"),
        (lambda r: np.exp(-(r - 1.0) ** 2), 1e-10, "not monotone"),
    ], ids=["residual", "sign", "monotone"])
    def test_newton_result_is_rejected(self, monkeypatch, params_critical,
                                       values, res, match):
        # _newton stubbed to return a crafted state and residual
        grid = RadialGrid(h=0.05, rmax=8.0, dim=3)
        u = values(grid.r)
        monkeypatch.setattr(gs, "_newton",
                            lambda guess, *args: (u, 0.0, res, 3, "tol"))
        guess = np.exp(-grid.r ** 2)
        with pytest.raises(ConvergenceError, match=match):
            _polish(guess, grid.r ** 2, grid, params_critical.b,
                    params_critical.p, 1e-8)


class TestNehariDescent:
    def test_random_trial_meets_stop_rule_on_nehari_set(self, grid,
                                                        params_critical, rng):
        params = params_critical
        b, p = params.b, params.p
        coeff = params.omega + params.gamma ** 2 * grid.r_pow(2.0)
        start = random_trial_field(grid, rng).values.real
        [(v, steps)] = _nehari_descent(coeff, grid, b, p)([start])
        assert steps < 500
        F = stationary_residual(v, grid, coeff, b, p)
        f = nonlinearity(v, grid, b, p)
        assert np.max(np.abs(F)) < 1e-3 * np.max(np.abs(f))
        u = RadialField(grid, v)
        assert abs(nehari(u, params)) < 1e-10 * h_omega_norm_sq(u, params)

    def test_start_is_left_as_it_was(self, grid, params_critical, rng):
        # descend copies its start: the read-only .real view of a field is
        # accepted, and a writable start is not overwritten by the steps
        b, p = params_critical.b, params_critical.p
        descend = _nehari_descent(grid.r_pow(2.0), grid, b, p)
        start = random_trial_field(grid, rng).values.real
        assert not start.flags.writeable
        kept = start.copy()
        [(v, steps)] = descend([start])
        assert steps > 0 and np.array_equal(start, kept)
        writable = kept.copy()
        [(again, again_steps)] = descend([writable])
        assert np.array_equal(writable, kept)
        assert np.array_equal(again, v) and again_steps == steps

    @pytest.mark.parametrize("state, params_name, coeff_of", [
        ("bound_state", "params_critical", lambda g: g.r_pow(2.0)),
        ("bound_state_super", "params_supercritical", lambda g: g.r_pow(2.0)),
        ("soliton", "params_critical", lambda g: np.ones(g.n))])
    def test_converged_state_is_a_fixed_point(self, request, state,
                                              params_name, coeff_of):
        # the stop rule holds at the converged state: no step is taken
        u = request.getfixturevalue(state).profile
        params = request.getfixturevalue(params_name)
        [(v, steps)] = _nehari_descent(coeff_of(u.grid), u.grid, params.b,
                                       params.p)([u.values.real])
        assert steps == 0
        assert np.max(np.abs(v - u.values.real)) <= 1e-12 * np.max(v)

    @pytest.mark.parametrize("relax", [1.3, 1.9])
    def test_folded_rhs_is_the_extrapolated_step(self, grid, params_critical,
                                                 rng, relax):
        # one solve for v + step (f - (c - 1) F) gives v + c (S(v) - v),
        # S(v) = (1 + step L)^(-1) (v + step f)
        b, p, s = params_critical.b, params_critical.p, gs._DESCENT_STEP
        coeff = grid.r_pow(2.0)
        v = random_trial_field(grid, rng).values.real
        f = nonlinearity(v, grid, b, p)
        F = stationary_residual(v, grid, coeff, b, p)
        solve = factor_operator(grid, coeff, scale=s, shift=1.0)
        folded = solve(v + s * (f - (relax - 1.0) * F))
        plain = v + relax * (solve(v + s * f) - v)
        assert np.max(np.abs(folded - plain)) <= 1e-13 * np.max(np.abs(plain))

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    @pytest.mark.parametrize("start", [
        lambda r2: (1.0 - r2) * np.exp(-r2 / 2.0),
        lambda r2: (1.0 - r2 / 2.25) * np.exp(-r2 / 2.0),
        lambda r2: (1.0 - 3.0 * r2 + r2 * r2) * np.exp(-r2 / 2.0)],
        ids=["one_node", "one_node_wide", "two_nodes"])
    def test_start_with_nodes_ends_on_the_ground_state(self, grid, start, p):
        # an over-relaxed step does not settle on an excited state
        params = ModelParams(dim=3, b=0.5, p=p, gamma=1.0, omega=0.0)
        r2 = grid.r_pow(2.0)
        [(v, steps)] = _nehari_descent(r2, grid, params.b, p)([start(r2)])
        assert steps < 500
        assert np.all(v > 0.0) or np.all(v < 0.0)
        ground = solve_bound_state(params, grid).profile
        assert rel_err(action(RadialField(grid, v), params),
                       action(ground, params)) <= 1e-6

    def test_bound_state_step_count(self, monkeypatch):
        # the extrapolated descent takes 47 steps over these six points,
        # the plain one 71, and Newton stops at rounding after 2 updates at
        # each, where a third update to confirm the stall made 18: a guard
        # against giving the speed back
        steps, updates = [], 0

        def counted(*args):
            descend = _nehari_descent(*args)

            def run(trials):
                outcomes = descend(trials)
                steps.extend(k for _, k in outcomes)
                return outcomes
            return run

        monkeypatch.setattr(gs, "_nehari_descent", counted)
        for p in (1.5, 2.0, 2.5):
            for omega in (-0.75, 0.5):
                params = ModelParams(dim=3, b=0.5, p=p, gamma=1.0,
                                     omega=omega)
                updates += solve_bound_state(params,
                                             default_grid(params)).iterations
        assert len(steps) == 6 and sum(steps) <= 53
        assert updates <= 12

    @staticmethod
    def _alone(descend, trials):
        """Each trial's outcome of descend run on it alone."""
        return [descend([t])[0] for t in trials]

    @staticmethod
    def _assert_same(got, want):
        """Outcomes equal bit for bit: state and steps, or error class and
        message."""
        assert len(got) == len(want)
        for a, b in zip(got, want):
            if isinstance(b, ConvergenceError):
                assert type(a) is type(b) and str(a) == str(b)
            else:
                assert a[0].tobytes() == b[0].tobytes() and a[1] == b[1]

    @pytest.mark.parametrize("cap", [500, 8])
    def test_each_row_of_a_block_is_its_descent_alone(
            self, monkeypatch, grid, params_critical, bound_state, rng, cap):
        # the rows stop at their own steps: the converged state at once,
        # the Gaussian and the random trials later (7 to 9 steps), and with
        # a cap of 8 the slowest at the cap
        monkeypatch.setattr(gs, "_DESCENT_MAX_ITER", cap)
        b, p, r2 = params_critical.b, params_critical.p, grid.r_pow(2.0)
        descend = _nehari_descent(r2, grid, b, p)
        trials = [np.exp(-r2 / 2.0), bound_state.profile.values.real]
        trials += [random_trial_field(grid, rng).values.real
                   for _ in range(4)]
        block = descend(trials)
        self._assert_same(block, self._alone(descend, trials))
        steps = [k for _, k in block]
        assert steps[1] == 0 and len(set(steps)) >= 3
        assert (max(steps) == cap) == (cap == 8)

    def test_a_row_that_raises_leaves_the_others_as_they_were(self):
        # corpus draw 37 (N = 4, b = 1.98, p = 1.0148, omega = 23.0): the
        # projections of three of ten random trials leave the floating-point
        # range, and each of the other seven descends as it does alone and
        # in a block without them
        params = list(bound_state_draws())[37]
        grid = RadialGrid(h=H_COARSE, rmax=8.0, dim=params.dim)
        rng = np.random.default_rng(37)
        trials = [random_trial_field(grid, rng).values.real
                  for _ in range(10)]
        coeff = params.omega + params.gamma ** 2 * grid.r_pow(2.0)
        descend = _nehari_descent(coeff, grid, params.b, params.p)
        block = descend(trials)
        raised = [j for j, out in enumerate(block)
                  if isinstance(out, ConvergenceError)]
        assert raised == [4, 5, 7]
        assert all("out of floating-point range" in str(block[j])
                   for j in raised)
        self._assert_same(block, self._alone(descend, trials))
        kept = [t for j, t in enumerate(trials) if j not in raised]
        self._assert_same([out for j, out in enumerate(block)
                           if j not in raised], descend(kept))

    def test_a_row_that_raises_mid_run_leaves_the_others(
            self, monkeypatch, grid, params_critical, rng):
        # the third projection finds P < 0 in the middle row, which leaves
        # the block with its reason; the rows around it go on unchanged
        b, p, r2 = params_critical.b, params_critical.p, grid.r_pow(2.0)
        trials = [random_trial_field(grid, rng).values.real
                  for _ in range(3)]
        alone = self._alone(_nehari_descent(r2, grid, b, p), trials)
        calls = []

        def flipped(values, grid, b, p):
            f = nonlinearity(values, grid, b, p)
            calls.append(len(values))
            if len(calls) == 3:
                f[1] *= -1.0
            return f

        monkeypatch.setattr(gs, "nonlinearity", flipped)
        block = _nehari_descent(r2, grid, b, p)(trials)
        assert calls[:4] == [3, 3, 3, 2]
        assert str(block[1]).startswith("no Nehari projection: ")
        self._assert_same([block[0], block[2]], [alone[0], alone[2]])

    def test_two_row_products_per_step_of_the_block(self, monkeypatch, grid,
                                                    params_critical, rng):
        # each step forms <w v, F> and <w v, f> of every row with one
        # core.dot each: ten random trials on the 16h mesh make two calls
        # per step of the slowest, not two per trial step, so a return to
        # a Python loop of products over the rows fails here
        mesh = RadialGrid(16.0 * grid.h, grid.rmax, grid.dim)
        calls = []

        def counted(x, y, conjugate=False):
            calls.append(x.shape)
            return dot(x, y, conjugate)

        monkeypatch.setattr(gs, "dot", counted)
        b, p, r2 = params_critical.b, params_critical.p, mesh.r_pow(2.0)
        trials = [random_trial_field(mesh, rng).values.real
                  for _ in range(10)]
        steps = [k for _, k in _nehari_descent(r2, mesh, b, p)(trials)]
        assert len(set(steps)) > 1
        assert calls[:2] == [(10, mesh.n)] * 2
        assert len(calls) == 2 * (1 + max(steps))

    def test_step_cap_returns_the_last_projected_state(self, monkeypatch,
                                                       grid, params_critical):
        # a cap of 3 ends the descent from the Gaussian before its stop
        # rule: the state is still projected onto the Nehari set
        monkeypatch.setattr(gs, "_DESCENT_MAX_ITER", 3)
        params = params_critical
        b, p, r2 = params.b, params.p, grid.r_pow(2.0)
        [(v, steps)] = _nehari_descent(r2, grid, b, p)([np.exp(-r2 / 2.0)])
        assert steps == 3
        F = stationary_residual(v, grid, r2, b, p)
        assert np.max(np.abs(F)) >= 1e-3 * np.max(nonlinearity(v, grid, b, p))
        u = RadialField(grid, v)
        assert abs(nehari(u, params)) < 1e-10 * h_omega_norm_sq(u, params)


class TestStationaryResiduals:
    def test_bound_state_residuals_small(self, bound_state, params_critical):
        r1, r2 = stationary_residuals(bound_state.profile, params_critical)
        P = potential(bound_state.profile, params_critical)
        assert abs(r1) < 1e-6 * P
        assert abs(r2) < 1e-6 * P

    def test_scaled_profile_residual_value(self, bound_state, params_critical):
        # for 2 phi the first identity residual equals (4 - 2^(p+1)) P(phi)
        from gpelab.experiments import scale_amplitude
        p = params_critical.p
        P = potential(bound_state.profile, params_critical)
        r1, _ = stationary_residuals(scale_amplitude(bound_state.profile, 2.0),
                                     params_critical)
        assert r1 == pytest.approx((4.0 - 2.0 ** (p + 1)) * P, rel=1e-9)
        assert r1 < 0.0

    def test_random_field_matches_recomputation(self, grid, params_critical,
                                                rng):
        from gpelab.experiments import random_trial_field
        u = random_trial_field(grid, rng)
        r1, r2 = stationary_residuals(u, params_critical)
        # independent recomputation from the basic norms
        g = grad_norm_sq(u)
        m = mass(u)
        v = variance(u)
        P = potential(u, params_critical)
        assert r1 == pytest.approx(g + 0.0 * m + v - P, rel=1e-12)
        expect2 = (-0.5 * g - 0.0 * m - 2.5 * v + 2.5 / 3.0 * P)
        assert r2 == pytest.approx(expect2, rel=1e-12)


class TestOneFormula:
    """Result fields equal the public functionals of the returned profile."""

    def test_bound_state_fields(self, bound_state, params_critical):
        prof = bound_state.profile
        assert rel_err(bound_state.energy,
                       energy(prof, params_critical)) < 1e-12
        assert rel_err(bound_state.mass, mass(prof)) < 1e-12
        # near-zero identities: absolute bound on the scale of P
        P = potential(prof, params_critical)
        r1, r2 = stationary_residuals(prof, params_critical)
        assert abs(r1 - bound_state.pohozaev_1) <= 1e-12 * P
        assert abs(r2 - bound_state.pohozaev_2) <= 1e-12 * P

    def test_minimizer_fields(self, params_subcritical, grid):
        res = constrained_minimizer(1.0, params_subcritical, grid)
        assert rel_err(res.energy,
                       energy(res.profile, params_subcritical)) < 1e-12
        assert rel_err(res.mass, mass(res.profile)) < 1e-12


class TestConstrainedMinimizer:
    def test_subcritical_converges(self, params_subcritical, grid):
        res = constrained_minimizer(1.0, params_subcritical, grid)
        assert res.residual_sup < 1e-8
        assert rel_err(res.mass, 1.0) < 1e-12
        assert res.omega > params_subcritical.omega_min

    def test_supercritical_multiplier_trend(self, params_supercritical, grid):
        omegas = []
        for q in (1e-3, 1e-2, 1e-1):
            res = constrained_minimizer(q, params_supercritical, grid,
                                        ball_radius=1.0)
            omegas.append(res.omega)
            assert res.omega > params_supercritical.omega_min
        assert omegas[0] < omegas[1] < omegas[2]
        assert omegas[0] == pytest.approx(params_supercritical.omega_min,
                                          abs=1e-2)

    def test_constraint_set_empty(self, params_supercritical, grid):
        # nonempty iff q <= ball_radius / (gamma N)
        with pytest.raises(ConstraintEmptyError):
            constrained_minimizer(0.5, params_supercritical, grid,
                                  ball_radius=1.0)

    def test_energy_unbounded_without_ball(self, params_supercritical, grid):
        with pytest.raises(EnergyUnboundedError):
            constrained_minimizer(20.0, params_supercritical, grid)

    def test_supercritical_local_well_without_ball(self, params_supercritical,
                                                   grid):
        # small masses still sit in a local well: the descent finds the
        # local critical point even though the energy is unbounded below
        res = constrained_minimizer(2.0, params_supercritical, grid)
        assert res.residual_sup < 1e-8

    def test_critical_below_threshold_converges(self, params_critical, grid,
                                                soliton):
        res = constrained_minimizer(0.9 * soliton.mass, params_critical, grid)
        assert res.residual_sup < 1e-8

    def test_critical_above_threshold_raises(self, params_critical, grid,
                                             soliton):
        # above the soliton mass the energy is unbounded below: no minimizer
        with pytest.raises(EnergyUnboundedError, match="p >= p_c"):
            constrained_minimizer(1.1 * soliton.mass, params_critical, grid)

    @pytest.mark.parametrize("dim, b, p, q", [(2, 1.0, 2.0, 4.0),
                                              (1, 0.6, 4.52, 1.0)],
                             ids=["critical", "supercritical"])
    def test_state_under_ten_h_wide_raises(self, dim, b, p, q):
        # without a ball the flow settles here on a discrete state a few h
        # wide (omega 5491 at p_c, twice the soliton mass, and 12136 above
        # p_c), which Newton polishes to a residual of 1e-10 although the
        # continuum problem has no such state
        params = ModelParams(dim=dim, b=b, p=p, gamma=1.0)
        assert params.criticality != "subcritical"
        grid = RadialGrid(h=1e-2, rmax=8.0, dim=dim)
        with pytest.raises(EnergyUnboundedError, match="collapses at h = 0.01"):
            constrained_minimizer(q, params, grid)

    def test_subcritical_collapse_names_the_mesh(self):
        # below p_c the energy is bounded below at every mass, so a flow
        # that dives is a state narrower than the h = 1e-2 mesh (the energy
        # falls from -1.9e4 to -9.6e5 in three steps), not an empty set
        params = ModelParams(dim=1, b=0.419, p=3.398, gamma=1.0)
        assert params.criticality == "subcritical"
        grid = RadialGrid(h=1e-2, rmax=8.0, dim=1)
        with pytest.raises(ConvergenceError) as err:
            constrained_minimizer(71.95, params, grid)
        assert not isinstance(err.value, EnergyUnboundedError)
        assert "collapsed to the mesh scale h = 0.01" in str(err.value)

    @pytest.mark.parametrize("h", [1e-2, 2e-3])
    def test_subcritical_state_under_ten_h_wide_raises(self, h):
        # TestRoundingTail's N = 1 input on coarser meshes: below p_c too
        # a state under 10 h wide is not resolved (the flow settles here
        # at omega h^2 of 0.11 at h = 1e-2 without the width cap), so it
        # collapses to the mesh scale
        params = ModelParams(dim=1, b=0.961, p=1.8311, gamma=1.0)
        assert params.criticality == "subcritical"
        grid = RadialGrid(h=h, rmax=8.0, dim=1)
        with pytest.raises(ConvergenceError) as err:
            constrained_minimizer(63.55, params, grid)
        assert not isinstance(err.value, EnergyUnboundedError)
        assert str(err.value) == ("descent diverged below p_c: the state "
                                  f"collapsed to the mesh scale h = {h}")

    def test_cross_solver_consistency(self, params_critical, grid, soliton):
        # flow minimizer at q below critical mass equals the bound-state
        # profile at the extracted multiplier
        res = constrained_minimizer(0.9 * soliton.mass, params_critical, grid)
        other = solve_bound_state(replace(params_critical, omega=res.omega),
                                  grid)
        num = mass(res.profile - other.profile)
        assert np.sqrt(num / other.mass) < 1e-3

    def test_descent_is_energy_monotone(self, monkeypatch, grid, soliton):
        # no flow step raises the energy beyond rounding: the critical case
        # at 0.9 M(Q) (175 steps) and the four minimizer inputs of the
        # stationary benchmark (11 steps at p = 1.5, 1-5 in the ball), each
        # with the first Newton rejected so that the flow runs
        for p, q, ball in [(2.0, 0.9 * soliton.mass, None), (1.5, 1.0, None),
                           (2.5, 1e-3, 1.0), (2.5, 1e-2, 1.0),
                           (2.5, 1e-1, 1.0)]:
            params = ModelParams(dim=3, b=0.5, p=p, gamma=1.0, omega=0.0)
            with monkeypatch.context() as spy:
                flow = self._spy(spy)
                res = constrained_minimizer(q, params, grid, ball_radius=ball)
            assert res.residual_sup < 1e-8
            assert flow["steps"] > 0
            trace = [m.energy(p, 1.0, 1.0) for m in flow["moments"]]
            assert len(trace) == flow["steps"] + 1
            diffs = np.diff(np.asarray(trace))
            assert np.all(diffs <= 1e-10 * max(1.0, abs(trace[0])))

    def test_ball_interior_check(self, params_supercritical, grid):
        res = constrained_minimizer(1e-2, params_supercritical, grid,
                                    ball_radius=1.0)
        hsq = (grad_norm_sq(res.profile)
               + params_supercritical.gamma ** 2 * variance(res.profile))
        assert hsq < 0.99 * 1.0

    @staticmethod
    def _spy(monkeypatch):
        # rejects the first Newton, so the flow runs, and records the
        # flow's moments (the start's, then one per step), its steps (the
        # only factorizations: Newton's updates are one-shot solves) and
        # the update count of the Newton after it
        flow = {"moments": [], "steps": 0, "newton": None}

        def moments(*args):
            m = _moments(*args)
            if flow["newton"] is None:
                flow["moments"].append(m)
            return m

        def factor(grid, coeff, scale=1.0, shift=0.0):
            flow["steps"] += 1
            return factor_operator(grid, coeff, scale, shift)

        def polish(*args, **first):
            out = _reject_first_newton(*args, **first)
            flow["newton"] = out[3]
            return out

        monkeypatch.setattr(gs, "_moments", moments)
        monkeypatch.setattr(gs, "factor_operator", factor)
        monkeypatch.setattr(gs, "_polish", polish)
        return flow

    def test_iterations_count_flow_steps_and_newton_updates(
            self, monkeypatch, params_subcritical, grid):
        flow = self._spy(monkeypatch)
        res = constrained_minimizer(1.0, params_subcritical, grid)
        assert flow["steps"] > 0 and flow["newton"] > 0
        assert res.iterations == flow["steps"] + flow["newton"]

    def test_step_cap_raises(self, monkeypatch, params_subcritical):
        grid = RadialGrid(h=1e-2, rmax=8.0, dim=3)
        monkeypatch.setattr(gs, "_FLOW_MAX_ITER", 3)
        monkeypatch.setattr(gs, "_polish", _reject_first_newton)
        with pytest.raises(ConvergenceError) as err:
            constrained_minimizer(1.0, params_subcritical, grid)
        assert str(err.value) == ("nonconvergence: 3 descent steps without "
                                  "stationarity")


def _reject_first_newton(*args, **first):
    """_polish, except that the minimizer's first Newton (the call that
    passes min_scale) raises, so the gradient flow runs."""
    if first:
        raise ConvergenceError("first Newton rejected: stub")
    return _polish(*args)


def _flow_only(monkeypatch, q, params, grid, ball_radius=None):
    """The minimizer's outcome with its first Newton rejected: the result,
    or the (class, message) of the error raised."""
    with monkeypatch.context() as m:
        m.setattr(gs, "_polish", _reject_first_newton)
        return _outcome(q, params, grid, ball_radius)


def _outcome(q, params, grid, ball_radius=None):
    try:
        return constrained_minimizer(q, params, grid, ball_radius=ball_radius)
    except ConvergenceError as err:
        return type(err), str(err)


def _close_state(got, want):
    """Two minimizer results hold the same state within 1e-9 relative."""
    u, v = got.profile.values.real, want.profile.values.real
    assert np.max(np.abs(u - v)) <= 1e-9 * np.max(np.abs(v))
    assert abs(got.omega - want.omega) <= 1e-9 * max(1.0, abs(want.omega))


class TestFirstNewton:
    """The minimizer runs the bordered Newton from its start first, and its
    gradient flow only where that Newton is rejected.  The state is the
    flow's either way: within rounding where the first Newton's state is
    returned, and bit for bit where the flow runs."""

    @pytest.mark.parametrize("p, q, ball", [
        (1.5, 1.0, None), (2.5, 1e-3, 1.0), (2.5, 1e-2, 1.0),
        (2.5, 1e-1, 1.0), (2.0, 0.5 * SOLITON_MASS, None)],
        ids=["p1.5", "ball_1e-3", "ball_1e-2", "ball_1e-1", "half_MQ"])
    def test_no_flow_step_where_newton_is_accepted(self, monkeypatch, grid,
                                                   p, q, ball):
        # the four minimizer inputs of the stationary benchmark and the
        # critical case at half the soliton mass: no factorization, so no
        # flow step, and fewer iterations than the flow and its polish
        params = ModelParams(dim=3, b=0.5, p=p, gamma=1.0)
        want = _flow_only(monkeypatch, q, params, grid, ball)
        factored = []

        def factor(*args, **kwargs):
            factored.append(args)
            return factor_operator(*args, **kwargs)

        monkeypatch.setattr(gs, "factor_operator", factor)
        got = constrained_minimizer(q, params, grid, ball_radius=ball)
        assert factored == []
        _close_state(got, want)
        assert got.iterations < want.iterations

    def test_first_newton_that_raises_gives_the_flow_state(self,
                                                          monkeypatch):
        # TestRoundingTail's N = 1 state: Newton from the start converges
        # to a sign-changing state, which _polish rejects
        params = ModelParams(dim=1, b=0.961, p=1.8311, gamma=1.0)
        grid = RadialGrid(h=1.25e-3, rmax=8.0, dim=1)
        raised = []

        def polish(*args, **first):
            try:
                return _polish(*args, **first)
            except ConvergenceError as err:
                raised.append(str(err))
                raise

        want = _flow_only(monkeypatch, 63.55, params, grid)
        monkeypatch.setattr(gs, "_polish", polish)
        _same_state(constrained_minimizer(63.55, params, grid), want)
        assert raised == ["profile is not strictly positive on the grid"]

    @pytest.mark.parametrize("route, p, q, ball", [
        ("ball", 2.5, 1e-2, 1.0), ("width", 2.0, 0.5 * SOLITON_MASS, None),
        ("G", 1.5, 1.0, None)])
    def test_first_newton_past_an_exit_gives_the_flow_state(
            self, monkeypatch, grid, route, p, q, ball):
        # the first Newton's state, stubbed past one exit of the minimizer
        # and inside the others: ||u||_H^2 * 100 against 0.99 ball_radius,
        # omega to 2 / h^2 (p_c without a ball), ||grad u||^2 * 1e6
        params = ModelParams(dim=3, b=0.5, p=p, gamma=1.0)
        want = _flow_only(monkeypatch, q, params, grid, ball)
        m0 = _moments(np.exp(-grid.r ** 2 / 2.0), grid, 0.5, p)
        seen = []

        def polish(*args, **first):
            v, nu, res, n_iter = _polish(*args, **first)
            if first:
                v = {"ball": 10.0, "G": 1e3}.get(route, 1.0) * v
                nu = 2.0 / grid.h ** 2 if route == "width" else nu
                m = _moments(v, grid, 0.5, p)
                # G of the start, exp(-r^2/2) scaled to mass q
                g0 = m0.G * q / m0.M
                seen.append((m.G > 1e4 * g0, nu * grid.h ** 2 > 1e-2,
                             ball is not None
                             and m.h_norm_sq(1.0, 0.0) > 0.99 * ball))
            return v, nu, res, n_iter

        monkeypatch.setattr(gs, "_polish", polish)
        _same_state(constrained_minimizer(q, params, grid, ball_radius=ball),
                    want)
        assert seen == [tuple(e == route for e in ("G", "width", "ball"))]

    def test_agrees_with_the_flow_over_seeded_draws(self, monkeypatch):
        # the two TestAdmissibleSet minimizer schemes, alternating and drawn
        # by numpy at h = 1e-2: each draw ends as the flow alone ends it,
        # in the same state within 1e-9 or in the same error and message
        rng = np.random.default_rng(33)
        returned = 0
        for k in range(150):
            dim = int(rng.integers(1, 6))
            b_frac, p_frac, q_frac = rng.uniform(0.01, 0.99, 3)
            if k % 2 == 0:
                b, p = admissible(dim, b_frac, p_frac)
                params = ModelParams(dim=dim, b=b, p=p, gamma=1.0)
                ball = 1.0 if params.criticality != "subcritical" else None
                q = q_frac / dim if ball else 10.0 ** (5.0 * q_frac - 3.0)
            else:
                b, p_top = admissible(dim, b_frac, 1.0)
                p_c = 1.0 + (4.0 - 2.0 * b) / dim
                params = ModelParams(dim=dim, b=b, gamma=1.0,
                                     p=p_c + (p_top - p_c) * p_frac)
                ball, q = None, 10.0 ** (5.0 * q_frac - 3.0)
            grid = RadialGrid(h=H_COARSE, rmax=8.0, dim=dim)
            want = _flow_only(monkeypatch, q, params, grid, ball)
            got = _outcome(q, params, grid, ball)
            if isinstance(want, tuple):
                assert got == want
            else:
                _close_state(got, want)
                returned += 1
        # 127 of the 150 return, 125 of them from the first Newton, and
        # agree to 1.2e-13; 13 raise EnergyUnboundedError and 10
        # ConvergenceError, one of them after a first Newton outside the
        # ball and five below p_c on states of omega h^2 0.014-1.7
        assert returned >= 100


class TestUniqueness:
    def test_sign_conditions_over_grid(self):
        for dim in (3, 4, 5):
            for b in (0.25, 0.5, 0.75):
                pmax = 1 + (4 - 2 * b) / (dim - 2)
                for frac in (0.2, 0.5, 0.8):
                    p = 1 + frac * (pmax - 1)
                    params = ModelParams(dim=dim, b=b, p=p, gamma=1.0,
                                         omega=0.7)
                    rep = uniqueness_report(params)
                    assert rep.A < 0
                    assert rep.C >= 0
                    assert rep.conditions_hold

    def test_omega_zero_root(self, params_critical):
        rep = uniqueness_report(params_critical)
        assert rep.B == 0.0
        assert rep.k == pytest.approx(np.sqrt(-rep.C / rep.A), rel=1e-12)

    def test_single_sign_change(self):
        params = ModelParams(dim=3, b=0.5, p=2.0, gamma=1.0, omega=1.3)
        rep = uniqueness_report(params)
        r = np.linspace(1e-3, 50.0, 20000)
        G = rep.A * r ** 2 + rep.B * r + rep.C
        signs = np.sign(G)
        changes = np.count_nonzero(np.diff(signs[signs != 0]))
        assert changes == 1
        assert np.all(G[r > rep.k + 1e-9] < 0)

    def test_outside_hypotheses(self):
        with pytest.raises(OutsideHypothesesError):
            uniqueness_report(ModelParams(dim=2, b=0.5, p=2.0, gamma=1.0,
                                          omega=0.0))
        with pytest.raises(OutsideHypothesesError):
            uniqueness_report(ModelParams(dim=3, b=1.2, p=1.5, gamma=1.0,
                                          omega=0.0))

    def test_solver_still_works_outside_hypotheses(self):
        # profiles are computed for b >= 1 even though no uniqueness claim
        # is available there
        params = ModelParams(dim=3, b=1.2, p=1.8, gamma=1.0, omega=0.0)
        grid = RadialGrid(h=4e-3, rmax=8.0, dim=3)
        res = solve_bound_state(params, grid)
        assert res.residual_sup < 1e-8
        assert np.all(res.profile.values.real > 0)


class TestSerialization:
    def test_round_trip(self, tmp_path, bound_state, params_critical):
        path = tmp_path / "profile.txt"
        save_profile(path, bound_state, params_critical)
        field, header = load_profile(path)
        assert header["dim"] == 3
        assert header["stationary_omega"] == bound_state.omega
        # 17 significant digits keep the round trip at rounding level
        assert np.max(np.abs(field.values - bound_state.profile.values)) \
            < 1e-15 * np.max(np.abs(bound_state.profile.values))

    @staticmethod
    def _line_writer(path, result_or_field, params, extra_header=None):
        # the one-f-string-per-row writer that save_profile replaced
        if isinstance(result_or_field, gs.GroundStateResult):
            field, omega = result_or_field.profile, result_or_field.omega
        else:
            field, omega = result_or_field, None
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
        for ri, vi in zip(g.r, field.values.real):
            lines.append(f"{ri:.17g} {vi:.17g}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @pytest.mark.parametrize("bare", [False, True], ids=["result", "field"])
    def test_bytes_match_the_line_writer(self, tmp_path, bound_state,
                                         params_critical, bare):
        data = bound_state
        if bare:
            # values of every magnitude, negative ones and signed zeros
            grid = bound_state.profile.grid
            values = np.tan(grid.r) * 10.0 ** (np.arange(grid.n) % 40 - 20)
            values[:2] = [0.0, -0.0]
            data = RadialField(grid, values)
        extra = {"method": "shoot", "tol": 1e-8, "p": 9.0, "seed": 12345}
        save_profile(tmp_path / "new.txt", data, params_critical, extra)
        self._line_writer(tmp_path / "old.txt", data, params_critical, extra)
        assert ((tmp_path / "new.txt").read_bytes()
                == (tmp_path / "old.txt").read_bytes())

    def test_rejects_complex(self, tmp_path, grid, params_critical):
        u = RadialField(grid, np.exp(1j * grid.r))
        with pytest.raises(ValueError):
            save_profile(tmp_path / "x.txt", u, params_critical)

    def test_bare_field_round_trip_is_exact(self, tmp_path, bound_state,
                                            params_critical):
        path = tmp_path / "profile.txt"
        save_profile(path, bound_state.profile, params_critical)
        field, header = load_profile(path)
        assert header["stationary_omega"] is None
        assert np.array_equal(field.values, bound_state.profile.values)

    @pytest.mark.parametrize("row, error", [
        ("1.0 2.0 3.0", ValueError),
        ("1.0", ValueError),
        ("1.0 two", ValueError),
        ("", GridMismatchError),
    ])
    def test_malformed_last_row_raises(self, tmp_path, bound_state,
                                       params_critical, row, error):
        path = tmp_path / "profile.txt"
        save_profile(path, bound_state, params_critical)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1] + [row]) + "\n")
        with pytest.raises(error):
            load_profile(path)

    def test_three_columns_everywhere_raise(self, tmp_path, bound_state,
                                            params_critical):
        path = tmp_path / "profile.txt"
        save_profile(path, bound_state, params_critical)
        lines = [ln if ln.startswith("#") else ln + " 0"
                 for ln in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not 2"):
            load_profile(path)


class TestShootingInternals:
    def test_gradient_flow_newton_mass_exact(self, params_critical, grid,
                                             soliton):
        res = constrained_minimizer(30.0, params_critical, grid)
        assert abs(mass(res.profile) - 30.0) < 1e-10 * 30.0


class TestNewton:
    """The one Newton, plain and bordered by a mass target q."""

    @staticmethod
    def _run(grid, q, max_iter):
        # Gaussian start at p = 1.5, omega = 0; with q it is normalized to
        # mass q and omega starts at its multiplier
        params = ModelParams(dim=3, b=0.5, p=1.5, gamma=1.0, omega=0.0)
        trap = grid.r_pow(2.0)
        u, omega = np.exp(-trap / 2.0), 0.0
        if q is not None:
            u *= np.sqrt(q / np.sum(grid.weights * u * u))
            omega = _moments(u, grid, params.b,
                             params.p).multiplier(params.gamma)
        u, omega, res, iters, _ = _newton(u, trap, grid, params.b,
                                          params.p, 1e-8, q, omega,
                                          max_iter=max_iter)
        assert res == np.max(np.abs(stationary_residual(
            u, grid, trap + omega, params.b, params.p)))
        return u, iters

    @pytest.mark.parametrize("q", [None, 1.0])
    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_residual_is_that_of_returned_state(self, grid, q, max_iter):
        # from a Gaussian Newton needs more than three updates, so each run
        # ends on max_iter
        assert self._run(grid, q, max_iter)[1] == max_iter

    def test_converged_run_counts_updates(self, grid):
        # the bordered polish meets its stop rule after the fourth update
        u, iters = self._run(grid, 1.0, 60)
        assert iters == 4
        assert abs(np.sum(grid.weights * u * u) - 1.0) <= 1e-12

    @pytest.mark.parametrize("p, q", [(2.0, 1.1 * SOLITON_MASS), (2.5, 20.0)],
                             ids=["above_MQ", "past_M_star"])
    def test_min_scale_gives_up_at_the_first_failed_update(self, grid, p, q):
        # no positive state of mass q exists here, and from the minimizer's
        # start the first update does not lower the residual at 1/8 of its
        # step: the minimizer's min_scale ends the run before that update,
        # where the default halving spends all 60 updates
        trap = grid.r_pow(2.0)
        u = np.exp(-trap / 2.0)
        u *= np.sqrt(q / np.dot(grid.weights, u * u))
        omega = _moments(u, grid, 0.5, p).multiplier(1.0)
        args = (u, trap, grid, 0.5, p, 1e-8, q, omega)
        v, nu, res, n_iter, stop = _newton(*args,
                                           min_scale=gs._FIRST_MIN_SCALE)
        assert (n_iter, stop) == (0, "line_search")
        assert v is u and nu == omega
        assert res == np.max(np.abs(stationary_residual(u, grid,
                                                        trap + omega, 0.5, p)))
        assert _newton(*args)[3:] == (60, "max_iter")

    def test_bordered_run_closes_the_mass_gap(self, grid):
        # below tol each update is taken whole, so the bordered mass
        # correction is not throttled by the line search at the floor
        u, _ = self._run(grid, 1.0, 60)
        eps = np.finfo(float).eps
        assert abs(np.dot(grid.weights, u * u) - 1.0) <= 4.0 * eps

    def test_default_guess_stops_at_rounding_after_two_updates(
            self, params_critical, grid, bound_state):
        # the solve's own guess: the descent on the 2h mesh, prolonged
        b, p, coeff = params_critical.b, params_critical.p, grid.r_pow(2.0)
        coarse = gs._coarse_mesh(grid)
        r2 = coarse.r_pow(2.0)
        descend = _nehari_descent(r2, coarse, b, p)
        guess = gs._prolong(gs._state(descend([np.exp(-r2 / 2.0)])[0]))
        u, _, res, n_iter, stop = _newton(guess, coeff, grid, b, p, 1e-8)
        assert (n_iter, stop) == (2, "tol")
        assert u.tobytes() == bound_state.profile.values.real.tobytes()
        # a further update would only show the stall: it moves u at rounding
        step = solve_operator(grid, coeff - p * nonlinear_rate(u, grid, b, p),
                              -stationary_residual(u, grid, coeff, b, p))
        assert np.max(np.abs(step)) <= 2.1e-12 * np.max(u)
        # and from u itself Newton makes none
        assert _newton(u, coeff, grid, b, p, 1e-8)[3:] == (0, "tol")

    def test_below_tol_above_the_floor_goes_on(self, params_critical, grid,
                                               bound_state):
        # the start counts as contracted (from an infinite residual); with
        # tol above the default state's floor, a start between the two is
        # no stop, and one update brings it to the floor
        b, p, coeff = params_critical.b, params_critical.p, grid.r_pow(2.0)
        u = bound_state.profile.values.real
        # J u = (1 - p) r^(-b) u^p at a stationary u
        v = u * (1.0 + 3e-7 / np.max((p - 1.0) * grid.r ** -b * u ** p))
        start = np.max(np.abs(stationary_residual(v, grid, coeff, b, p)))
        assert rounding_floor(v, coeff, grid, b, p) < start < 1e-6
        _, _, res, n_iter, stop = _newton(v, coeff, grid, b, p, 1e-6)
        assert (n_iter, stop) == (1, "tol")
        assert res <= rounding_floor(v, coeff, grid, b, p)


def rounding_floor(u, coeff, grid, b, p):
    """100 eps max_i (|lap_diag_i| + |coeff_i| + r_i^(-b)|u_i|^(p-1)) |u_i|,
    the sup residual below which a state is at rounding."""
    scale = (np.abs(grid.lap_diag) + np.abs(coeff)
             + grid.r ** (-b) * np.abs(u) ** (p - 1.0)) * np.abs(u)
    return 100.0 * np.finfo(float).eps * np.max(scale)


class TestRoundingFloor:
    """Newton stops where it stalls at the rounding floor of a
    large-amplitude state, whose floor lies above tol, and the acceptance
    passes there."""

    LARGE = [(3, 1.5, 5.0), (3, 1.5, 20.0), (5, 1.6, 0.0), (3, 2.0, 80.0)]
    IDS = ["p1.5_omega5", "p1.5_omega20", "N5_p1.6", "p2_omega80"]

    @staticmethod
    def _params(dim, p, omega):
        return ModelParams(dim=dim, b=0.5, p=p, gamma=1.0, omega=omega)

    @pytest.mark.parametrize("amp, shift", [(1.0, 0.0), (1.0, 1e9),
                                            (1e6, 0.0)],
                             ids=["laplacian", "coeff", "nonlinearity"])
    def test_floor_counts_every_term(self, amp, shift):
        # each case lets a different term of the scale dominate
        grid = RadialGrid(h=0.05, rmax=8.0, dim=3)
        u = amp * np.exp(-grid.r ** 2)
        coeff = shift + grid.r ** 2
        assert gs._rounding_floor(u, coeff, grid, 0.5, 3.0) == pytest.approx(
            rounding_floor(u, coeff, grid, 0.5, 3.0), rel=1e-14)

    @pytest.mark.parametrize("dim,p,omega", LARGE, ids=IDS)
    def test_large_amplitude_state_stops_at_its_floor(self, monkeypatch,
                                                      dim, p, omega):
        stops = []

        def traced(*args, **kwargs):
            out = _newton(*args, **kwargs)
            stops.append(out[3:])
            return out

        monkeypatch.setattr(gs, "_newton", traced)
        params = self._params(dim, p, omega)
        grid = default_grid(params)
        res = solve_bound_state(params, grid)
        u = res.profile.values.real
        # two updates reach the floor, one or two more show the stall: the
        # floor lies above tol, so Newton does not stop at rounding first
        assert res.iterations <= 4
        assert stops == [(res.iterations, "floor")]
        assert np.max(u) > 50.0
        assert res.residual_sup <= rounding_floor(
            u, omega + grid.r ** 2, grid, params.b, p)

    def test_floor_above_tol_is_no_stop_before_a_stall(self):
        # the default state's floor lies above tol but its rounding below:
        # from an iterate between the two Newton goes on to below tol
        params = self._params(3, 2.0, 0.0)
        grid = default_grid(params)
        u = solve_bound_state(params, grid).profile.values.real
        b, p, coeff = params.b, params.p, grid.r ** 2
        # J u = (1 - p) r^(-b) u^p at a stationary u
        v = u * (1.0 + 3e-8 / np.max((p - 1.0) * grid.r ** -b * u ** p))
        start = np.max(np.abs(stationary_residual(v, grid, coeff, b, p)))
        assert 1e-8 < start < rounding_floor(v, coeff, grid, b, p)
        _, _, res, n_iter, stop = _newton(v, coeff, grid, b, p, 1e-8)
        assert n_iter >= 1 and res < 1e-8 and stop == "tol"

    @pytest.mark.parametrize("stop", ["max_iter", "floor"])
    def test_residual_under_the_floor_needs_a_stall(self, monkeypatch, stop):
        # _newton stubbed to end between tol and the floor: accepted only
        # where Newton stalled there, not where it ran out of updates
        grid = RadialGrid(h=0.05, rmax=8.0, dim=3)
        u, coeff = 1e3 * np.exp(-grid.r ** 2), grid.r ** 2
        res = 0.5 * rounding_floor(u, coeff, grid, 0.5, 2.0)
        assert res > 1e-8
        monkeypatch.setattr(gs, "_newton",
                            lambda guess, *args: (u, 0.0, res, 60, stop))
        if stop == "floor":
            assert _polish(u, coeff, grid, 0.5, 2.0, 1e-8)[2] == res
        else:
            with pytest.raises(ConvergenceError, match="above tolerance"):
                _polish(u, coeff, grid, 0.5, 2.0, 1e-8)

    @pytest.mark.parametrize("dim,p,omega", LARGE + [(3, 2.0, 0.0)],
                             ids=IDS + ["default"])
    def test_one_update_is_rejected(self, monkeypatch, dim, p, omega):
        # one update from the descent guess leaves the residual far above
        # the floor, so it is not accepted before Newton has converged
        monkeypatch.setattr(gs, "_newton", functools.partial(_newton,
                                                              max_iter=1))
        with pytest.raises(ConvergenceError, match="above tolerance"):
            solve_bound_state(self._params(dim, p, omega))

    @pytest.mark.parametrize("p,omega", [(1.05, -2.9), (1.3, -2.999)])
    def test_tiny_state_is_converged(self, p, omega):
        # amplitudes 1e-20 and 1e-10: the descent output's residual is far
        # below tol, yet it is 1e-6 to 1e-5 away from the discrete solution
        params = self._params(3, p, omega)
        grid = RadialGrid(h=1e-2, rmax=8.0, dim=3)
        res = solve_bound_state(params, grid)
        u = res.profile.values.real
        coeff = omega + grid.r ** 2
        v = u
        for _ in range(3):
            F = stationary_residual(v, grid, coeff, params.b, p)
            v = v + solve_operator(
                grid, coeff - p * grid.r ** -params.b * v ** (p - 1.0), -F)
        assert res.iterations >= 1
        assert np.max(np.abs(v - u)) <= 1e-8 * np.max(u)


class TestRoundingTail:
    """Sign and monotonicity are judged at rounding: entries and rises
    within 100 eps max|u| of zero count as zero, so a far tail that Newton
    left at 0 or at a tiny negative passes, and one beyond rounding does
    not."""

    EPS_ZERO = 100.0 * np.finfo(float).eps

    @pytest.mark.parametrize("h", [1.25e-3, 1e-3])
    def test_underflowed_tail_is_accepted(self, h):
        # mass 63.55 at N = 1: peaks of 59 and 61 (omega h^2 of 0.008 and
        # 0.006), far tails of -6.4e-109 and -9.5e-114 where Newton
        # converged (the exact checks raised here); on h = 1e-2 and 2e-3
        # the state is under 10 h wide and raises
        params = ModelParams(dim=1, b=0.961, p=1.8311, gamma=1.0)
        grid = RadialGrid(h=h, rmax=8.0, dim=1)
        res = constrained_minimizer(63.55, params, grid)
        u = res.profile.values.real
        zero = self.EPS_ZERO * np.max(u)
        assert np.any(u <= 0.0)
        assert np.all(u >= -zero) and np.all(np.diff(u) <= zero)
        assert res.residual_sup <= 1e-8
        assert abs(res.mass - 63.55) <= 1e-10 * 63.55

    def test_ball_state_far_outside_is_named(self):
        # N = 2, ball radius 1: Newton ends on a state with a rounding tail
        # whose squared H norm is about 2000, so the ball check names it
        params = ModelParams(dim=2, b=1.569, p=1.5687, gamma=1.0)
        grid = RadialGrid(h=1e-2, rmax=8.0, dim=2)
        with pytest.raises(ConvergenceError,
                           match="not strictly inside the ball"):
            constrained_minimizer(0.2184, params, grid, ball_radius=1.0)

    @staticmethod
    def _polish_of(monkeypatch, u, params):
        # _newton stubbed to return the crafted state at a tiny residual
        grid = RadialGrid(h=0.05, rmax=8.0, dim=3)
        monkeypatch.setattr(gs, "_newton",
                            lambda guess, *args: (u, 0.0, 1e-12, 3, "tol"))
        return _polish(np.exp(-grid.r ** 2), grid.r ** 2, grid, params.b,
                       params.p, 1e-8)

    @pytest.mark.parametrize("kind", ["sign", "rise"])
    def test_tail_at_rounding_is_kept_as_is(self, monkeypatch,
                                            params_critical, kind):
        r = RadialGrid(h=0.05, rmax=8.0, dim=3).r
        u = np.where(r < 6.0, np.exp(-r ** 2), 0.0)
        if kind == "sign":
            u[r > 7.0] = -0.5 * self.EPS_ZERO
        else:
            u[np.argmax(r > 7.0)] = 0.5 * self.EPS_ZERO
        assert self._polish_of(monkeypatch, u, params_critical)[0] is u

    @pytest.mark.parametrize("kind, match", [("sign", "not strictly positive"),
                                             ("rise", "not monotone")])
    def test_tail_beyond_rounding_raises(self, monkeypatch, params_critical,
                                         kind, match):
        r = RadialGrid(h=0.05, rmax=8.0, dim=3).r
        u = np.where(r < 6.0, np.exp(-r ** 2), 0.0)
        if kind == "sign":
            u[r > 7.0] = -1e-6
        else:
            u[np.argmax(r > 7.0)] = 1e-6
        with pytest.raises(ConvergenceError, match=match):
            self._polish_of(monkeypatch, u, params_critical)


def _check_state(res, params, grid, coeff, tol=1e-8, nehari_scale=None):
    """The outcome every accepted stationary solve must have (a positive
    state is nontrivial); |nehari| is measured against nehari_scale, by
    default the squared H norm."""
    u = res.profile.values.real
    assert np.all(u > 0.0) and np.all(np.diff(u) <= 0.0)
    assert res.residual_sup <= max(
        tol, rounding_floor(u, coeff, grid, params.b, params.p))
    m = _moments(u, grid, params.b, params.p)
    if nehari_scale is None:
        nehari_scale = m.h_norm_sq(params.gamma, res.omega)
    assert abs(m.nehari(params.gamma, res.omega)) <= 1e-8 * nehari_scale


class TestAdmissibleSet:
    """Every admissible input ends in a nontrivial, positive, monotone
    stationary state or in a named gpelab error, and most draws end in a
    state: the accepted count of each seeded corpus is pinned."""

    def test_bound_state(self):
        accepted = []
        for params in bound_state_draws():
            grid = RadialGrid(h=H_COARSE, rmax=8.0, dim=params.dim)
            try:
                res = solve_bound_state(params, grid)
            except ConvergenceError as err:
                # p close to 1: the Nehari projection leaves the
                # floating-point range (or underflows to 0)
                assert "Nehari projection" in str(err)
                continue
            _check_state(res, params, grid, params.omega + grid.r ** 2)
            accepted.append(params)
        assert len(accepted) == 145

    def test_constrained_minimizer(self):
        accepted = []
        for params, q, ball in minimizer_draws():
            grid = RadialGrid(h=H_COARSE, rmax=8.0, dim=params.dim)
            try:
                res = constrained_minimizer(q, params, grid, ball_radius=ball)
            except ConvergenceError as err:
                # a flow that leaves the ball, collapses to the mesh scale
                # or ends on a sign-changing state; never a residual above
                # tol
                assert re.search("descent diverged|not strictly inside the "
                                 "ball|not strictly positive", str(err))
                continue
            _check_state(res, params, grid, res.omega + grid.r ** 2)
            assert abs(res.mass - q) <= 1e-10 * q
            accepted.append(params)
        # three subcritical draws without a ball collapse to the mesh
        # scale: states of omega h^2 0.039 and 1.2, and one of 1.42 whose
        # rounding tail _check_state would reject
        assert len(accepted) == 84

    def test_constrained_minimizer_without_ball(self):
        # a state below the soliton mass at p_c and in a local well at
        # small mass above p_c; elsewhere the energy is unbounded below
        accepted = []
        for params, q in unconstrained_draws():
            grid = RadialGrid(h=H_COARSE, rmax=8.0, dim=params.dim)
            try:
                res = constrained_minimizer(q, params, grid)
            except EnergyUnboundedError:
                continue
            # resolved by the mesh: the decay length 1/sqrt(omega) is over
            # 10 h (the legitimate states here reach omega h^2 of 1e-3)
            assert res.omega * grid.h ** 2 <= 1e-2
            # at small mass omega is near -gamma N, where the squared H
            # norm G + V + omega M cancels to 1e-6 of its terms (N = 1,
            # q = 1.4e-3), so nehari is measured against the terms
            m = _moments(res.profile.values.real, grid, params.b, params.p)
            _check_state(res, params, grid, res.omega + grid.r ** 2,
                         nehari_scale=m.G + m.V + abs(res.omega) * m.M)
            assert abs(res.mass - q) <= 1e-10 * q
            accepted.append(params)
        assert len(accepted) == 73


def _same_state(a, b):
    """Two results of a solve agree bit for bit."""
    assert np.array_equal(a.profile.values, b.profile.values)
    assert (a.omega, a.residual_sup, a.pohozaev_1, a.pohozaev_2, a.mass,
            a.energy, a.iterations) == (b.omega, b.residual_sup,
                                        b.pohozaev_1, b.pohozaev_2, b.mass,
                                        b.energy, b.iterations)


class TestCoarseStart:
    """A solve descends on the mesh of spacing 2h, interpolates the state
    to h and polishes it there.  Where the coarse stage fails, or the mesh
    takes none, the solve is the descent and polish on h alone, bit for
    bit: _coarse_mesh stubbed to return its own grid gives that path."""

    @staticmethod
    def _fine_only(monkeypatch, params, grid):
        with monkeypatch.context() as m:
            m.setattr(gs, "_coarse_mesh", lambda g: g)
            return solve_bound_state(params, grid)

    def test_coarse_mesh_is_built_once_per_grid(self, grid):
        coarse = gs._coarse_mesh(grid)
        assert (coarse.h, coarse.rmax, coarse.dim, coarse.n) == (
            2.0 * grid.h, grid.rmax, grid.dim, grid.n // 2)
        assert gs._coarse_mesh(grid) is coarse
        small = RadialGrid(h=0.5, rmax=3.0, dim=3)
        assert small.n == 6 and gs._coarse_mesh(small) is small

    def test_coarse_descent_failure_falls_back(self, monkeypatch,
                                               params_critical, grid):
        want = self._fine_only(monkeypatch, params_critical, grid)
        meshes = []

        def builder(coeff, mesh, b, p):
            descend = _nehari_descent(coeff, mesh, b, p)

            def run(trials):
                meshes.append(mesh.n)
                if mesh is not grid:
                    return [ConvergenceError("no Nehari projection: stub")]
                return descend(trials)
            return run

        monkeypatch.setattr(gs, "_nehari_descent", builder)
        got = solve_bound_state(params_critical, grid)
        assert meshes == [grid.n // 2, grid.n]
        _same_state(got, want)

    def test_rejected_polish_falls_back(self, monkeypatch, params_critical,
                                        grid):
        want = self._fine_only(monkeypatch, params_critical, grid)
        guesses = []

        def polish(guess, *args):
            guesses.append(guess)
            if len(guesses) == 1:
                raise ConvergenceError("profile is not monotone: stub")
            return _polish(guess, *args)

        monkeypatch.setattr(gs, "_polish", polish)
        _same_state(solve_bound_state(params_critical, grid), want)
        assert len(guesses) == 2

    def test_odd_node_count_takes_no_coarse_stage(self, monkeypatch,
                                                  params_critical):
        odd = RadialGrid(h=1e-2, rmax=7.99, dim=3)
        assert odd.n % 2 == 1 and gs._coarse_mesh(odd) is odd
        want = self._fine_only(monkeypatch, params_critical, odd)
        _same_state(solve_bound_state(params_critical, odd), want)

    def test_agrees_with_the_fine_descent_over_seeded_draws(self,
                                                            monkeypatch):
        # the TestAdmissibleSet bound-state scheme, drawn by numpy: every
        # draw that the descent on h alone solves is solved with the coarse
        # stage too, to the same state within rounding
        rng = np.random.default_rng(2031)
        solved, gap = 0, 0.0
        for _ in range(60):
            dim = int(rng.integers(1, 6))
            b, p = admissible(dim, *rng.uniform(0.01, 0.99, 2))
            omega = -dim + 0.01 + (dim + 30.0) * rng.uniform()
            params = ModelParams(dim=dim, b=b, p=p, gamma=1.0, omega=omega)
            grid = RadialGrid(h=H_COARSE, rmax=8.0, dim=dim)
            try:
                want = self._fine_only(monkeypatch, params, grid)
            except ConvergenceError:
                continue
            u = solve_bound_state(params, grid).profile.values.real
            v = want.profile.values.real
            gap = max(gap, np.max(np.abs(u - v)) / np.max(np.abs(v)))
            solved += 1
        # 60 of 60 are solved, and agree to 6.9e-13
        assert solved >= 50 and gap <= 1e-9


class TestEntryChecks:
    BAD = [np.nan, np.inf, 0.0, -1.0]

    @pytest.mark.parametrize("tol", BAD)
    def test_tol_must_be_positive_and_finite(self, params_critical,
                                             params_subcritical, tol):
        with pytest.raises(ParameterError, match="tol"):
            solve_bound_state(params_critical, tol=tol)
        with pytest.raises(ParameterError, match="tol"):
            solve_soliton(params_critical, tol=tol)
        with pytest.raises(ParameterError, match="tol"):
            constrained_minimizer(1.0, params_subcritical, tol=tol)

    @pytest.mark.parametrize("bad", BAD)
    def test_minimizer_inputs_must_be_positive_and_finite(
            self, params_supercritical, bad):
        with pytest.raises(ParameterError, match="q must be positive"):
            constrained_minimizer(bad, params_supercritical)
        with pytest.raises(ParameterError,
                           match="ball_radius must be positive"):
            constrained_minimizer(1e-2, params_supercritical,
                                  ball_radius=bad)

    def test_minimizer_grid_must_match_params(self, params_subcritical):
        grid = RadialGrid(h=2e-3, rmax=8.0, dim=2)
        with pytest.raises(GridMismatchError):
            constrained_minimizer(1.0, params_subcritical, grid)
