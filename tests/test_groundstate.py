import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpelab.core import (GridMismatchError, ModelParams, ParameterError,
                         RadialField, RadialGrid, default_grid,
                         factor_operator, grad_norm_sq, mass, nonlinearity,
                         stationary_residual, variance)
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
        assert res.converged
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
        guess, _ = _nehari_descent(np.exp(-grid.r ** 2 / 2.0), coeff, grid,
                                   b, p)
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
        v, steps = _nehari_descent(start, coeff, grid, b, p)
        assert steps < 500
        F = stationary_residual(v, grid, coeff, b, p)
        f = nonlinearity(v, grid, b, p)
        assert np.max(np.abs(F)) < 1e-3 * np.max(np.abs(f))
        u = RadialField(grid, v)
        assert abs(nehari(u, params)) < 1e-10 * h_omega_norm_sq(u, params)

    @pytest.mark.parametrize("state, params_name, coeff_of", [
        ("bound_state", "params_critical", lambda g: g.r_pow(2.0)),
        ("bound_state_super", "params_supercritical", lambda g: g.r_pow(2.0)),
        ("soliton", "params_critical", lambda g: np.ones(g.n))])
    def test_converged_state_is_a_fixed_point(self, request, state,
                                              params_name, coeff_of):
        # the stop rule holds at the converged state: no step is taken
        u = request.getfixturevalue(state).profile
        params = request.getfixturevalue(params_name)
        v, steps = _nehari_descent(u.values.real, coeff_of(u.grid), u.grid,
                                   params.b, params.p)
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
        solve = factor_operator(grid, coeff, scale=s, shift=1.0,
                                definite=True)
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
        v, steps = _nehari_descent(start(r2), r2, grid, params.b, p)
        assert steps < 500
        assert np.all(v > 0.0) or np.all(v < 0.0)
        ground = solve_bound_state(params, grid).profile
        assert rel_err(action(RadialField(grid, v), params),
                       action(ground, params)) <= 1e-6

    def test_bound_state_step_count(self, monkeypatch):
        # the extrapolated descent takes 47 steps over these six points,
        # the plain one 71: a guard against giving the speed back
        steps = []

        def counted(*args):
            v, k = _nehari_descent(*args)
            steps.append(k)
            return v, k

        monkeypatch.setattr(gs, "_nehari_descent", counted)
        for p in (1.5, 2.0, 2.5):
            for omega in (-0.75, 0.5):
                params = ModelParams(dim=3, b=0.5, p=p, gamma=1.0,
                                     omega=omega)
                solve_bound_state(params, default_grid(params))
        assert len(steps) == 6 and sum(steps) <= 53

    def test_step_cap_returns_the_last_projected_state(self, monkeypatch,
                                                       grid, params_critical):
        # a cap of 3 ends the descent from the Gaussian before its stop
        # rule: the state is still projected onto the Nehari set
        monkeypatch.setattr(gs, "_DESCENT_MAX_ITER", 3)
        params = params_critical
        b, p, r2 = params.b, params.p, grid.r_pow(2.0)
        v, steps = _nehari_descent(np.exp(-r2 / 2.0), r2, grid, b, p)
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
        assert res.converged
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
            constrained_minimizer(20.0, params_supercritical, grid,
                                  max_iter=5000)

    def test_supercritical_local_well_without_ball(self, params_supercritical,
                                                   grid):
        # small masses still sit in a local well: the descent finds the
        # local critical point even though the energy is unbounded below
        res = constrained_minimizer(2.0, params_supercritical, grid)
        assert res.converged
        assert res.residual_sup < 1e-8

    def test_critical_below_threshold_converges(self, params_critical, grid,
                                                soliton):
        res = constrained_minimizer(0.9 * soliton.mass, params_critical, grid)
        assert res.converged
        assert res.residual_sup < 1e-8

    def test_critical_above_threshold_flagged(self, params_critical, grid,
                                              soliton):
        res = constrained_minimizer(1.1 * soliton.mass, params_critical, grid,
                                    max_iter=8000)
        assert not res.converged
        assert res.status == "gradient_diverging"

    def test_cross_solver_consistency(self, params_critical, grid, soliton):
        # flow minimizer at q below critical mass equals the bound-state
        # profile at the extracted multiplier
        res = constrained_minimizer(0.9 * soliton.mass, params_critical, grid)
        other = solve_bound_state(params_critical.with_omega(res.omega), grid)
        num = mass(res.profile - other.profile)
        assert np.sqrt(num / other.mass) < 1e-3

    def test_descent_is_energy_monotone(self, params_critical, grid, soliton):
        # accepted descent energies never increase beyond rounding
        trace = []
        res = constrained_minimizer(0.9 * soliton.mass, params_critical, grid,
                                    energy_trace=trace)
        assert res.converged
        assert len(trace) > 10
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs <= 1e-10 * max(1.0, abs(trace[0])))

    def test_ball_interior_check(self, params_supercritical, grid):
        res = constrained_minimizer(1e-2, params_supercritical, grid,
                                    ball_radius=1.0)
        hsq = (grad_norm_sq(res.profile)
               + params_supercritical.gamma ** 2 * variance(res.profile))
        assert hsq < 0.99 * 1.0


class TestMinimizerBranches:
    """The gradient flow's rejected steps and its plateau hand-off, and
    what `iterations` counts there: every flow step tried (a step rejected
    for raising the energy included) plus the Newton updates."""

    @staticmethod
    def _run(monkeypatch, q, params, grid, tol=1e-8):
        # counts the flow steps tried (the only definite factorizations)
        # and keeps Newton's start and its update count
        scales, newton = [], []

        def factor(grid, coeff, scale=1.0, shift=0.0, definite=False):
            if definite:
                scales.append(scale)
            return factor_operator(grid, coeff, scale, shift, definite)

        def newton_spy(guess, coeff, grid, b, p, tol, q=None, omega=0.0):
            out = _newton(guess, coeff, grid, b, p, tol, q, omega)
            newton.append((guess, coeff + omega, out[3]))
            return out

        monkeypatch.setattr(gs, "factor_operator", factor)
        monkeypatch.setattr(gs, "_newton", newton_spy)
        trace = []
        res = constrained_minimizer(q, params, grid, tol=tol,
                                    energy_trace=trace)
        return res, scales, trace, newton[0]

    @staticmethod
    def _uphill(monkeypatch, rejected):
        # _moments of the first `rejected` flow steps (calls 2 and on)
        # report an infinite energy, a step that raised the energy
        calls = []

        def moments(*args):
            calls.append(None)
            m = _moments(*args)
            if 2 <= len(calls) <= rejected + 1:
                return m._replace(P=-np.inf)
            return m
        monkeypatch.setattr(gs, "_moments", moments)

    def test_rejected_steps_halve_dtau_and_count(self, monkeypatch,
                                                 params_subcritical):
        grid = RadialGrid(h=1e-2, rmax=8.0, dim=3)
        self._uphill(monkeypatch, 3)
        res, scales, trace, (_, _, n_newton) = self._run(
            monkeypatch, 1.0, params_subcritical, grid)
        assert res.converged
        assert scales[:5] == [0.5, 0.25, 0.125, 0.0625, 0.0625]
        assert len(scales) == len(trace) + 3
        assert res.iterations == len(scales) + n_newton

    def test_energy_that_never_falls_hands_the_start_to_newton(
            self, monkeypatch, params_subcritical):
        # dtau halves from 0.5 until it is at most 1e-8: 27 steps tried
        grid = RadialGrid(h=1e-2, rmax=8.0, dim=3)
        self._uphill(monkeypatch, 10 ** 6)
        res, scales, trace, (guess, _, n_newton) = self._run(
            monkeypatch, 1.0, params_subcritical, grid)
        assert res.converged and not trace
        assert len(scales) == 27 and scales[-1] <= 1e-8 < scales[-2]
        start = np.exp(-grid.r_pow(2.0) / 2.0)
        assert np.allclose(guess / start, guess[0] / start[0], rtol=1e-14)
        assert res.iterations == 27 + n_newton

    def test_plateaued_flow_is_handed_to_newton(self, monkeypatch,
                                                params_subcritical):
        # tol = 1e-24 puts the flow's stop, 1e-12, below its rounding on
        # this mesh: the residual stops falling, and the check every 200
        # steps hands the flow to Newton, which stalls at its floor
        grid = RadialGrid(h=1e-2, rmax=8.0, dim=3)
        res, scales, trace, (guess, coeff, n_newton) = self._run(
            monkeypatch, 1.0, params_subcritical, grid, tol=1e-24)
        assert res.converged
        assert len(scales) == len(trace) and len(trace) % 200 == 0
        assert 400 <= len(trace) < 40000
        b, p = params_subcritical.b, params_subcritical.p
        assert np.max(np.abs(stationary_residual(guess, grid, coeff, b,
                                                 p))) > 1e-12
        assert res.iterations == len(trace) + n_newton


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

    def test_bordered_run_closes_the_mass_gap(self, grid):
        # below tol each update is taken whole, so the bordered mass
        # correction is not throttled by the line search at the floor
        u, _ = self._run(grid, 1.0, 60)
        eps = np.finfo(float).eps
        assert abs(np.dot(grid.weights, u * u) - 1.0) <= 4.0 * eps


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
    def test_large_amplitude_state_stops_at_its_floor(self, dim, p, omega):
        params = self._params(dim, p, omega)
        grid = default_grid(params)
        res = solve_bound_state(params, grid)
        u = res.profile.values.real
        # two updates reach the floor, one or two more show the stall
        assert res.iterations <= 4
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
            v = v + factor_operator(
                grid, coeff - p * grid.r ** -params.b * v ** (p - 1.0))(-F)
        assert res.iterations >= 1
        assert np.max(np.abs(v - u)) <= 1e-8 * np.max(u)


class TestRoundingTail:
    """Sign and monotonicity are judged at rounding: entries and rises
    within 100 eps max|u| of zero count as zero, so a far tail that Newton
    left at 0 or at a tiny negative passes, and one beyond rounding does
    not."""

    EPS_ZERO = 100.0 * np.finfo(float).eps

    @pytest.mark.parametrize("h", [1e-2, 2e-3])
    def test_underflowed_tail_is_accepted(self, h):
        # mass 63.55 at N = 1: peaks of 37 and 54, far tails of 0 and about
        # -1e-88 where Newton converged (the exact checks raised here)
        params = ModelParams(dim=1, b=0.961, p=1.8311, gamma=1.0)
        grid = RadialGrid(h=h, rmax=8.0, dim=1)
        res = constrained_minimizer(63.55, params, grid)
        u = res.profile.values.real
        zero = self.EPS_ZERO * np.max(u)
        assert np.any(u <= 0.0)
        assert np.all(u >= -zero) and np.all(np.diff(u) <= zero)
        assert res.converged and res.residual_sup <= 1e-8
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


# Admissible draws on a coarse mesh: N <= 5, b and p as inner fractions of
# their open ranges (p capped at 5 where p_max is infinite)
H_COARSE = 1e-2


def _admissible(dim, b_frac, p_frac):
    b = min(2.0, dim) * b_frac
    p_max = 1.0 + (4.0 - 2.0 * b) / (dim - 2) if dim >= 3 else 5.0
    return b, 1.0 + (min(p_max, 5.0) - 1.0) * p_frac


inner = st.floats(0.01, 0.99)


def _check_state(res, params, grid, coeff, tol=1e-8):
    """The outcome every accepted stationary solve must have (a positive
    state is nontrivial)."""
    u = res.profile.values.real
    assert res.converged
    assert np.all(u > 0.0) and np.all(np.diff(u) <= 0.0)
    assert res.residual_sup <= max(
        tol, rounding_floor(u, coeff, grid, params.b, params.p))
    m = _moments(u, grid, params.b, params.p)
    h_sq = m.h_norm_sq(params.gamma, res.omega)
    assert abs(m.nehari(params.gamma, res.omega)) <= 1e-8 * h_sq


class TestAdmissibleSet:
    """Every admissible input ends in a nontrivial, positive, monotone
    stationary state or in a named gpelab error, and most draws end in a
    state: a floor on the accepted count fails a solver that raises on
    every draw."""

    def test_bound_state(self):
        accepted = []

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(st.integers(1, 5), inner, inner, st.floats(0.0, 1.0))
        def draw(dim, b_frac, p_frac, omega_frac):
            b, p = _admissible(dim, b_frac, p_frac)
            omega = -dim + 0.01 + (dim + 30.0) * omega_frac
            params = ModelParams(dim=dim, b=b, p=p, gamma=1.0, omega=omega)
            grid = RadialGrid(h=H_COARSE, rmax=8.0, dim=dim)
            try:
                res = solve_bound_state(params, grid)
            except ConvergenceError as err:
                # p close to 1: the Nehari projection leaves the
                # floating-point range (or underflows to 0)
                assert "Nehari projection" in str(err)
                return
            _check_state(res, params, grid, omega + grid.r ** 2)
            accepted.append(params)

        draw()
        # 147 of these 150 draws are accepted; other draw sets 133-148
        assert len(accepted) >= 120

    def test_constrained_minimizer(self):
        accepted = []

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(st.integers(1, 5), inner, inner, inner)
        def draw(dim, b_frac, p_frac, q_frac):
            # a ball of radius 1 where the energy is unbounded below, with q
            # inside its admissible range; otherwise q in (1e-3, 1e2)
            b, p = _admissible(dim, b_frac, p_frac)
            params = ModelParams(dim=dim, b=b, p=p, gamma=1.0)
            ball = 1.0 if params.criticality != "subcritical" else None
            q = q_frac / dim if ball else 10.0 ** (5.0 * q_frac - 3.0)
            grid = RadialGrid(h=H_COARSE, rmax=8.0, dim=dim)
            try:
                res = constrained_minimizer(q, params, grid, ball_radius=ball)
            except ConvergenceError as err:
                # a flow that leaves the ball or ends on a sign-changing
                # state; never a residual above tol
                assert re.search("descent diverged|not strictly inside the "
                                 "ball|not strictly positive", str(err))
                return
            _check_state(res, params, grid, res.omega + grid.r ** 2)
            assert abs(res.mass - q) <= 1e-10 * q
            accepted.append(params)

        draw()
        # 87 of these 100 draws are accepted; other draw sets 77-91
        assert len(accepted) >= 70


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
