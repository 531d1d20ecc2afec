import gc
import weakref

import numpy as np
import pytest

from gpelab import experiments
from gpelab.closedforms import ProfileInterpolant
from gpelab import groundstate as gs
from gpelab.core import (ConvergenceError, ModelParams, ParameterError,
                         RadialField, RadialGrid, factor_operator, mass,
                         nonlinearity)
from gpelab.evolve import EvolveConfig, EvolveResult
from gpelab.functionals import (SetLabel, _field_moments, _moments, action,
                                h_omega_norm_sq, nehari, potential, virial,
                                virial_coefficient)
from gpelab.core import grad_norm_sq
from gpelab.experiments import (HypothesisError, _dilate,
                                construct_cross_point, dichotomy_run,
                                estimate_d_n_upper, estimate_d_omega,
                                estimate_levels, nehari_project,
                                random_trial_field, scale_amplitude,
                                scale_dilation, scale_mass_preserving,
                                scale_potential_preserving, stability_run,
                                SweepRow, threshold_sweep)
from gpelab.groundstate import _nehari_descent, solve_bound_state

from corpus import H_COARSE, bound_state_draws
from helpers import rel_err


class TestScalings:
    def test_amplitude_scaling_matches_functional(self, bound_state,
                                                  params_critical):
        lam = 1.23
        H = h_omega_norm_sq(bound_state.profile, params_critical)
        P = potential(bound_state.profile, params_critical)
        K = nehari(scale_amplitude(bound_state.profile, lam), params_critical)
        assert K == pytest.approx(lam ** 2 * H - lam ** (params_critical.p + 1) * P,
                                  rel=1e-12)

    def test_mass_preserving(self, bound_state):
        for mu in (0.7, 1.4):
            v = scale_mass_preserving(bound_state.profile, mu)
            assert rel_err(mass(v), bound_state.mass) < 1e-6

    def test_potential_preserving(self, bound_state, params_critical):
        P0 = potential(bound_state.profile, params_critical)
        for mu in (0.8, 1.3):
            v = scale_potential_preserving(bound_state.profile, mu,
                                           params_critical)
            assert rel_err(potential(v, params_critical), P0) < 1e-6

    def test_dilation_changes_kinetic_term_with_exponent(self, bound_state,
                                                         params_critical):
        # the kinetic part of the dilated profile scales like mu^a
        dim, b, p = params_critical.dim, params_critical.b, params_critical.p
        a = (4.0 - 2.0 * b - (dim - 2.0) * (p - 1.0)) / (p - 1.0)
        g1 = grad_norm_sq(scale_dilation(bound_state.profile, 1.2,
                                         params_critical))
        g0 = grad_norm_sq(bound_state.profile)
        assert rel_err(g1 / g0, 1.2 ** a) < 1e-4


class TestNehariLevel:
    def test_projection_fixed_point(self, bound_state, params_critical):
        _, lam0 = nehari_project(bound_state.profile, params_critical)
        assert abs(lam0 - 1.0) < 1e-10

    def test_projection_stationary_at_near_minimizer(self, bound_state,
                                                     params_critical):
        # projecting a state already on the zero set moves the action by
        # less than 1e-10
        S0 = action(bound_state.profile, params_critical)
        proj, _ = nehari_project(bound_state.profile, params_critical)
        assert abs(action(proj, params_critical) - S0) < 1e-10 * S0

    def test_projection_lands_on_zero_set(self, grid, params_critical, rng):
        u = random_trial_field(grid, rng)
        proj, _ = nehari_project(u, params_critical)
        H = h_omega_norm_sq(proj, params_critical)
        assert abs(nehari(proj, params_critical)) < 1e-10 * H

    def test_projection_out_of_range_is_named(self):
        # lam0 = (44.6 / 5.69)^1000 is past the floating-point range
        params = ModelParams(dim=3, b=0.5, p=1.001, gamma=1.0, omega=5.0)
        grid = RadialGrid(h=1e-2, rmax=8.0, dim=3)
        u = RadialField(grid, np.exp(-grid.r ** 2 / 2))
        with pytest.raises(ConvergenceError,
                           match="out of floating-point range"):
            nehari_project(u, params)

    def test_zero_field_has_no_projection(self, grid, params_critical):
        with pytest.raises(ParameterError, match="no Nehari projection"):
            nehari_project(RadialField(grid, np.zeros(grid.n)),
                           params_critical)

    def test_flow_seeded_matches_minimizer_action(self, bound_state, grid,
                                                  params_critical):
        d = estimate_d_omega(params_critical, grid,
                             reference=bound_state.profile, n_random=3)
        S = action(bound_state.profile, params_critical)
        assert abs(d - S) <= 1e-6 * S
        assert d > 0

    def test_random_restarts_agree_within_percent(self, bound_state, grid,
                                                  params_critical):
        d_ref = action(bound_state.profile, params_critical)
        d_rand = estimate_d_omega(params_critical, grid, reference=None,
                                  n_random=15, seed=3)
        assert abs(d_rand - d_ref) <= 1e-2 * d_ref

    @pytest.mark.parametrize("params_name, state_name", [
        ("params_critical", "bound_state"),
        ("params_supercritical", "bound_state_super")])
    def test_random_estimate_bounds_least_action_from_above(
            self, request, grid, params_name, state_name):
        # the descent stops early, so a random-trial estimate sits just
        # above the discrete least action and never below it
        params = request.getfixturevalue(params_name)
        S = action(request.getfixturevalue(state_name).profile, params)
        d_rand = estimate_d_omega(params, grid, reference=None, n_random=10,
                                  seed=11)
        assert -1e-9 < (d_rand - S) / S < 1e-6

    def test_all_degenerate_keeps_each_reason(self, grid, params_critical,
                                              monkeypatch):
        # every descent gets a nonlinearity with P < 0, a different multiple
        # per call, so its first projection fails: the three random trials
        # fail as one block on the mesh of spacing 16h, go on from their
        # draws interpolated to grid as one block and fail again there,
        # where each reason is kept
        calls = []

        def degenerate(values, grid, b, p):
            calls.append(values)
            return -len(calls) * nonlinearity(values, grid, b, p)

        monkeypatch.setattr(gs, "nonlinearity", degenerate)
        with pytest.raises(ParameterError, match="all trials degenerate") as info:
            estimate_d_omega(params_critical, grid, n_random=3, seed=0)
        reasons = str(info.value).split("; ")[1:]
        assert [v.shape for v in calls] == [(3, grid.n // 16), (3, grid.n)]
        bottom = experiments._ladder(grid)[-1]
        draws = experiments._trial_values(bottom, np.random.default_rng(0), 3)
        assert np.array_equal(calls[1], [_prolong_up(c, 4) for c in draws])
        assert len(set(reasons)) == 3
        for i, reason in enumerate(reasons):
            assert reason.startswith(f"trial {i}: no Nehari projection: ")

    def test_failing_trial_is_skipped(self, grid, params_critical,
                                      monkeypatch):
        # trial 1 raises in the block on the mesh of spacing 16h and again
        # on grid from its draw, so it is skipped; trials 0 and 2 are
        # ranked there and the better one alone climbs and sets the estimate
        p = params_critical
        ladder = experiments._ladder(grid)
        bottom = ladder[-1]
        rec = _Recorder(fail=lambda mesh, k, j: (mesh is bottom and j == 1)
                        or (mesh is grid and k == 1))
        monkeypatch.setattr(experiments, "_nehari_descent", rec)
        d = estimate_d_omega(p, grid, n_random=3, seed=5)
        assert [(m.n, len(u)) for m, u, _ in rec.runs] == [
            (grid.n // 16, 3), (grid.n, 1), (grid.n // 8, 1),
            (grid.n // 4, 1), (grid.n // 2, 1), (grid.n, 1)]
        draws = experiments._trial_values(bottom, np.random.default_rng(5), 3)
        assert np.array_equal(rec.runs[1][1][0], _prolong_up(draws[1], 4))
        ranked = [_descend_alone(draws[i], bottom, p) for i in (0, 2)]
        best = min(ranked, key=lambda v: _real_action(v, bottom, p))
        assert d == _real_action(_climb_alone(best, ladder, p), grid, p)


def _real_action(values, grid, params):
    """The action of a real node array from its moments, as the level
    estimates score their refined trials."""
    return _moments(values, grid, params.b, params.p).action(
        params.p, params.gamma, params.require_omega())


def _descend_alone(values, mesh, params):
    """The Nehari descent of values alone on mesh with its own
    factorization."""
    coeff = params.require_omega() + params.gamma ** 2 * mesh.r_pow(2.0)
    [(v, _)] = _nehari_descent(coeff, mesh, params.b, params.p)([values])
    return v


def _draw_alone(grid, rng, complex_part):
    """One random trial by the scalar formula, bump by bump, and its bump
    count."""
    r2 = grid.r_pow(2.0)
    vals = np.zeros(grid.n, dtype=complex if complex_part else float)
    k = rng.integers(2, 4)
    for _ in range(k):
        a, s, c = (rng.uniform(0.3, 2.0), rng.uniform(0.6, 2.0),
                   rng.uniform(0.0, 1.5))
        bump = a * (1.0 + c * r2 / s ** 2) * np.exp(-r2 / (2.0 * s ** 2))
        if complex_part:
            bump = bump * np.exp(1j * rng.uniform(-0.5, 0.5) * r2)
        vals += bump
    return vals, k


def _prolong_up(values, times):
    """values interpolated up `times` halvings of the mesh spacing."""
    for _ in range(times):
        values = experiments._prolong(values)
    return values


def _climb_alone(values, ladder, params):
    """values, refined on the last mesh of ladder, carried up to ladder[0]
    by fresh descents on each mesh above it."""
    for mesh in reversed(ladder[:-1]):
        values = _descend_alone(experiments._prolong(values), mesh, params)
    return values


class _Recorder:
    """Stands for experiments._nehari_descent: records each block run as
    (mesh, trials, outcomes).  `fail(mesh, k, j)` says whether trial j
    (from 0) of the k-th run on mesh (from 1) leaves its block with a stub
    ConvergenceError; the other trials of that block descend together as
    they would."""

    def __init__(self, fail=lambda mesh, k, j: False):
        self.runs, self.fail = [], fail

    def __call__(self, *args):
        descend, mesh = _nehari_descent(*args), args[1]

        def run(trials):
            k = 1 + sum(m is mesh for m, _, _ in self.runs)
            fails = [self.fail(mesh, k, j) for j in range(len(trials))]
            kept = [t for t, bad in zip(trials, fails) if not bad]
            descended = iter(descend(kept) if kept else [])
            outcomes = [ConvergenceError("no Nehari projection: stub")
                        if bad else next(descended) for bad in fails]
            self.runs.append((mesh, list(trials), outcomes))
            return outcomes
        return run


def _outcomes_alone(mesh, trials, params):
    """Each trial's outcome of the Nehari descent alone on mesh."""
    coeff = params.require_omega() + params.gamma ** 2 * mesh.r_pow(2.0)
    descend = _nehari_descent(coeff, mesh, params.b, params.p)
    return [descend([t])[0] for t in trials]


class TestSharedDescent:
    """estimate_d_omega factors the descent operator once per mesh of the
    ladder h, 2h, 4h, 8h, 16h and refines every trial of its real-valued
    pool on a mesh with it, bit for bit as a descent that factors its own
    operator would."""

    @pytest.mark.parametrize("n_random", [3, 10])
    @pytest.mark.parametrize("with_reference", [False, True])
    def test_one_factorization_per_estimate(self, monkeypatch, grid,
                                            params_critical, bound_state,
                                            n_random, with_reference):
        factored = []

        def factor(mesh, coeff, scale=1.0, shift=0.0):
            factored.append((mesh.n, scale))
            return factor_operator(mesh, coeff, scale, shift)

        monkeypatch.setattr(gs, "factor_operator", factor)
        reference = bound_state.profile if with_reference else None
        estimate_d_omega(params_critical, grid, reference=reference,
                         n_random=n_random, seed=2)
        fine, e16, e8, e4, e2 = [(grid.n // k, gs._DESCENT_STEP)
                                 for k in (1, 16, 8, 4, 2)]
        assert factored == ([fine, e16, e8, e4, e2] if with_reference
                            else [e16, e8, e4, e2, fine])

    def test_one_solve_per_step_of_the_block(self, monkeypatch, grid,
                                             params_critical):
        # the ten random trials step together on 16h: one solve (with ten
        # right-hand sides) per step of the slowest trial, not one per
        # trial step; a return to one solve per trial fails here
        solves = {}

        def factor(mesh, coeff, scale=1.0, shift=0.0):
            solve = factor_operator(mesh, coeff, scale, shift)

            def counted(rhs):
                solves[mesh.n] = solves.get(mesh.n, 0) + 1
                return solve(rhs)
            return counted

        monkeypatch.setattr(gs, "factor_operator", factor)
        rec = _Recorder()
        monkeypatch.setattr(experiments, "_nehari_descent", rec)
        estimate_d_omega(params_critical, grid, n_random=10, seed=3)
        mesh, trials, outcomes = rec.runs[0]
        steps = [k for _, k in outcomes]
        assert mesh.n == grid.n // 16 and len(trials) == 10
        assert solves[mesh.n] == max(steps) < sum(steps)
        # each climb stage is a block of one
        for mesh, _, [(_, k)] in rec.runs[1:]:
            assert solves[mesh.n] == k

    def test_shared_descent_matches_its_own_factorization(
            self, monkeypatch, grid, params_supercritical, bound_state_super):
        p = params_supercritical
        rec = _Recorder()
        monkeypatch.setattr(experiments, "_nehari_descent", rec)
        reference = bound_state_super.profile
        d = estimate_d_omega(p, grid, reference=reference, n_random=3,
                             seed=4)
        # the reference alone on grid, the three random trials as one block
        # on 16h, then the one climb through 8h, 4h, 2h and grid
        assert [(m.n, len(u)) for m, u, _ in rec.runs] == [
            (grid.n, 1), (grid.n // 16, 3), (grid.n // 8, 1),
            (grid.n // 4, 1), (grid.n // 2, 1), (grid.n, 1)]
        assert np.array_equal(rec.runs[0][1][0], reference.values.real)
        draws = experiments._trial_values(rec.runs[1][0],
                                          np.random.default_rng(4), 3)
        assert np.array_equal(rec.runs[1][1], draws)
        for mesh, trials, outcomes in rec.runs:
            for (v, steps), (alone, alone_steps) in zip(
                    outcomes, _outcomes_alone(mesh, trials, p)):
                assert np.array_equal(v, alone) and steps == alone_steps
        # each climb start is the prolongation of the state below it
        bottom = [v for v, _ in rec.runs[1][2]]
        best = min(bottom, key=lambda v: _real_action(v, rec.runs[1][0], p))
        starts = [u for _, [u], _ in rec.runs[2:]]
        below = [best] + [v for _, _, [(v, _)] in rec.runs[2:-1]]
        for u, v in zip(starts, below):
            assert np.array_equal(u, experiments._prolong(v))
        fine = [v for m, _, outcomes in rec.runs if m is grid
                for v, _ in outcomes]
        assert len(fine) == 2
        assert d == min(_real_action(v, grid, p) for v in fine)

    def test_real_trial_draw_matches_the_field(self, grid):
        # the field is the one-row draw, real and complex alike
        for complex_part, dtype in ((False, np.float64), (True, complex)):
            drawn, fields = np.random.default_rng(7), np.random.default_rng(7)
            for _ in range(4):
                [vals] = experiments._trial_values(grid, drawn, 1,
                                                   complex_part)
                assert vals.dtype == dtype
                field = random_trial_field(grid, fields, complex_part).values
                want = field if complex_part else field.real
                assert vals.tobytes() == want.tobytes()
            assert drawn.bit_generator.state == fields.bit_generator.state

    @pytest.mark.parametrize("complex_part", [False, True])
    def test_block_draws_are_the_draws_one_by_one(self, grid, complex_part):
        # each row of a block of draws is, bit for bit, the scalar formula
        # of one trial drawn after the rows above it, with two bumps and
        # with three; on the 16h mesh and on grid, where at rmax = 40 the
        # bumps underflow to zeros
        for mesh in (experiments._ladder(grid)[-1], grid,
                     RadialGrid(grid.h, 40.0, grid.dim)):
            block = experiments._trial_values(
                mesh, np.random.default_rng(13), 8, complex_part)
            rng = np.random.default_rng(13)
            alone = [_draw_alone(mesh, rng, complex_part) for _ in range(8)]
            assert {k for _, k in alone} == {2, 3}
            assert block.shape == (8, mesh.n)
            for row, (vals, _) in zip(block, alone):
                assert row.tobytes() == vals.tobytes()

    def test_pool_holds_the_reference_and_the_draws_as_real_arrays(
            self, grid, bound_state):
        # the reference alone on grid, then the generator's first draws on
        # the mesh of spacing 16h
        phi = bound_state.profile
        pool = experiments._trial_pool(grid, phi, 2, 9)
        e16 = RadialGrid(16.0 * grid.h, grid.rmax, grid.dim)
        rng = np.random.default_rng(9)
        fields = [phi] + [random_trial_field(e16, rng) for _ in range(2)]
        assert len(pool) == len(fields) == 3
        assert [mesh for _, mesh in pool] == [grid] + [e16] * 2
        assert e16.n == grid.n // 16
        assert pool[0][1] is grid
        # 16h is the 2h mesh taken four times from grid, each kept on the
        # one above, as the solves on grid keep their 2h mesh
        kept = grid
        for _ in range(4):
            kept = gs._coarse_mesh(kept)
        assert all(mesh is kept for _, mesh in pool[1:])
        for (trial, _), field in zip(pool, fields):
            assert trial.dtype == np.float64
            assert np.array_equal(trial, field.values.real)
        # without a reference the same draws make the whole pool
        alone = experiments._trial_pool(grid, None, 2, 9)
        assert all(np.array_equal(a, b) for (a, _), (b, _)
                   in zip(alone, pool[1:]))


class TestCoarseStart:
    """Random trials are drawn and refined on the mesh of spacing 16h and
    ranked there by their action; the best alone is interpolated and
    refined up the ladder to the given mesh."""

    def test_prolong_is_exact_on_a_linear_profile(self, grid):
        coarse = experiments._coarse_mesh(grid)
        assert (coarse.h, coarse.rmax, coarse.n) == (2 * grid.h, grid.rmax,
                                                     grid.n // 2)
        fine = experiments._prolong(1.5 - 0.25 * coarse.r)
        np.testing.assert_allclose(fine[1:-1], (1.5 - 0.25 * grid.r)[1:-1],
                                   rtol=0, atol=1e-14)

    def test_prolong_keeps_the_even_origin_and_the_odd_rmax(self, grid):
        c = np.random.default_rng(1).uniform(0.5, 2.0, grid.n // 2)
        fine = experiments._prolong(c)
        # c_(-1) = c_0 at the origin; u(rmax) = 0 halfway past the last node
        assert fine[0] == c[0]
        assert fine[-1] == 0.5 * c[-1]

    def test_odd_node_count_takes_no_coarse_stage(self, params_critical):
        odd = RadialGrid(h=1e-2, rmax=7.99, dim=3)
        assert odd.n % 2 == 1 and experiments._coarse_mesh(odd) is odd
        p = params_critical
        d = estimate_d_omega(p, odd, n_random=3, seed=5)
        draws = experiments._trial_values(odd, np.random.default_rng(5), 3)
        alone = [v for v, _ in _outcomes_alone(odd, draws, p)]
        assert d == min(_real_action(v, odd, p) for v in alone)

    def test_odd_node_grid_takes_no_ladder(self, grid):
        # the ladder stops at the first mesh that takes no coarse stage
        odd = RadialGrid(h=1e-2, rmax=7.99, dim=3)
        assert experiments._ladder(odd) == [odd]
        assert all(mesh is odd for _, mesh in
                   experiments._trial_pool(odd, None, 3, 0))
        assert [m.n for m in experiments._ladder(grid)] == [
            grid.n, grid.n // 2, grid.n // 4, grid.n // 8, grid.n // 16]
        short = RadialGrid(h=1e-2, rmax=10.04, dim=3)
        assert [m.n for m in experiments._ladder(short)] == [1004, 502, 251]
        small = RadialGrid(h=0.05, rmax=0.6, dim=3)
        assert [m.n for m in experiments._ladder(small)] == [12, 6]

    def test_coarse_failure_refines_the_draw_on_grid(self, monkeypatch, grid,
                                                     params_critical):
        # every trial of the block off grid raises; each still reaches
        # grid from its draw, interpolated up four halvings, so none is
        # dropped, and they descend there as one block
        rec = _Recorder(fail=lambda mesh, k, j: mesh is not grid)
        monkeypatch.setattr(experiments, "_nehari_descent", rec)
        d = estimate_d_omega(params_critical, grid, n_random=3, seed=6)
        bottom = experiments._ladder(grid)[-1]
        draws = experiments._trial_values(bottom, np.random.default_rng(6), 3)
        assert [(m.n, len(u)) for m, u, _ in rec.runs] == [
            (grid.n // 16, 3), (grid.n, 3)]
        fine_starts = rec.runs[1][1]
        for u, c in zip(fine_starts, draws):
            assert np.array_equal(u, _prolong_up(c, 4))
        assert d == min(
            _real_action(_descend_alone(u, grid, params_critical), grid,
                         params_critical) for u in fine_starts)

    def test_the_climber_has_the_least_action_on_16h(self, monkeypatch,
                                                     grid,
                                                     params_supercritical):
        p = params_supercritical
        rec = _Recorder()
        monkeypatch.setattr(experiments, "_nehari_descent", rec)
        d = estimate_d_omega(p, grid, n_random=10, seed=3)
        ladder = experiments._ladder(grid)
        draws = experiments._trial_values(ladder[-1],
                                          np.random.default_rng(3), 10)
        ranked = [_descend_alone(c, ladder[-1], p) for c in draws]
        scores = [_real_action(v, ladder[-1], p) for v in ranked]
        winner = scores.index(min(scores))
        # one block of ten on 16h, each trial as it descends alone, then
        # one climb
        assert [(m.n, len(u)) for m, u, _ in rec.runs] == [
            (grid.n // 16, 10), (grid.n // 8, 1), (grid.n // 4, 1),
            (grid.n // 2, 1), (grid.n, 1)]
        assert all(np.array_equal(v, alone)
                   for (v, _), alone in zip(rec.runs[0][2], ranked))
        assert np.array_equal(rec.runs[1][1][0],
                              experiments._prolong(ranked[winner]))
        assert d == _real_action(_climb_alone(ranked[winner], ladder, p),
                                 grid, p)

    def test_a_failed_climb_hands_over_to_the_next_ranked(
            self, monkeypatch, grid, params_critical):
        # the first climb raises on 2h; the runner-up climbs and sets d
        p = params_critical
        rec = _Recorder(
            fail=lambda mesh, k, j: mesh.n == grid.n // 2 and k == 1)
        monkeypatch.setattr(experiments, "_nehari_descent", rec)
        d = estimate_d_omega(p, grid, n_random=4, seed=8)
        ladder = experiments._ladder(grid)
        ranked = [_descend_alone(c, ladder[-1], p) for c in
                  experiments._trial_values(ladder[-1],
                                            np.random.default_rng(8), 4)]
        order = sorted(range(4),
                       key=lambda i: _real_action(ranked[i], ladder[-1], p))
        assert [(m.n, len(u)) for m, u, _ in rec.runs] == [
            (grid.n // 16, 4), (grid.n // 8, 1), (grid.n // 4, 1),
            (grid.n // 2, 1), (grid.n // 8, 1), (grid.n // 4, 1),
            (grid.n // 2, 1), (grid.n, 1)]
        first, second = rec.runs[1][1][0], rec.runs[4][1][0]
        assert np.array_equal(first, experiments._prolong(ranked[order[0]]))
        assert np.array_equal(second, experiments._prolong(ranked[order[1]]))
        assert d == _real_action(_climb_alone(ranked[order[1]], ladder, p),
                                 grid, p)

    def test_every_failed_climb_keeps_its_reason_in_rank_order(
            self, monkeypatch, grid, params_critical):
        # two equal draws tie on 16h and the lower pool index climbs first;
        # with every climb raising, each reason is kept
        bottom = experiments._ladder(grid)[-1]
        [draw] = experiments._trial_values(bottom, np.random.default_rng(2))
        pool = [(draw, bottom), (draw.copy(), bottom)]
        rec = _Recorder(fail=lambda mesh, k, j: mesh.n == grid.n // 4)
        monkeypatch.setattr(experiments, "_nehari_descent", rec)
        with pytest.raises(ParameterError) as info:
            experiments._least_action(params_critical, grid, pool)
        assert str(info.value) == (
            "all trials degenerate; trial 0: no Nehari projection: stub; "
            "trial 1: no Nehari projection: stub")

    @pytest.mark.parametrize("params_name, state_name", [
        ("params_critical", "bound_state"),
        ("params_supercritical", "bound_state_super")])
    def test_each_random_trial_lands_just_above_least_action(
            self, request, grid, params_name, state_name):
        # one random trial per estimate, so each trial's refined action is
        # seen alone
        params = request.getfixturevalue(params_name)
        S = action(request.getfixturevalue(state_name).profile, params)
        for seed in range(6):
            d = estimate_d_omega(params, grid, n_random=1, seed=seed)
            assert -1e-9 < (d - S) / S < 1e-6


class TestLevelCorpus:
    def test_estimate_over_the_admissible_corpus(self):
        # every draw whose bound state returns has a random-trial estimate
        # just above that state's action; where p is so close to 1 that
        # the Nehari projection leaves the floating-point range, both fail
        above, degenerate = 0, 0
        for i, params in enumerate(bound_state_draws()):
            grid = RadialGrid(h=H_COARSE, rmax=8.0, dim=params.dim)
            try:
                S = action(solve_bound_state(params, grid).profile, params)
            except ConvergenceError:
                with pytest.raises(ParameterError,
                                   match="all trials degenerate"):
                    estimate_d_omega(params, grid, n_random=10, seed=i)
                degenerate += 1
                continue
            d = estimate_d_omega(params, grid, n_random=10, seed=i)
            assert -1e-9 < (d - S) / S < 1e-3, (i, params)
            above += 1
        assert (above, degenerate) == (145, 5)


def _least_of_every_point(phi, params):
    """estimate_d_n_upper by building every default factor: (value, point)
    of least action among all points built (the first on a tie), or the
    ParameterError that lists each factor's reason."""
    m = _field_moments(phi, params)
    if not m.P > 0.0:
        raise ParameterError(
            f"no cross point: lam* needs P(phi) > 0, P = {m.P}")
    lam_star = ((m.G / (virial_coefficient(params) * m.P))
                ** (1.0 / (params.p - 1.0)))
    if lam_star <= 1.0:
        raise ParameterError(
            f"no cross point: the amplitude window (1, lam*) is empty, "
            f"lam* = {lam_star}")
    points, skipped = [], []
    for f in experiments._CROSS_FRACTIONS:
        lam = 1.0 + f * (lam_star - 1.0)
        try:
            points.append(construct_cross_point(phi, params, lam))
        except ParameterError as exc:
            skipped.append(f"lambda={lam}: {exc}")
    if not points:
        raise ParameterError("no cross point could be constructed; "
                             + "; ".join(skipped))
    least = min(points, key=lambda pt: pt.action)
    return least.action, least


def _assert_same_as_every_point(phi, params):
    """estimate_d_n_upper returns the reference's point bit for bit, or
    raises its message; True where it returns."""
    try:
        value, least = _least_of_every_point(phi, params)
    except ParameterError as exc:
        with pytest.raises(ParameterError) as info:
            estimate_d_n_upper(phi, params)
        assert str(info.value) == str(exc)
        return False
    dn, [pt] = estimate_d_n_upper(phi, params)
    assert dn == value and pt.lam == least.lam and pt.mu == least.mu
    assert pt.field.values.tobytes() == least.field.values.tobytes()
    return True


class TestCrossCorpus:
    """The closed-form ranking of estimate_d_n_upper against building all
    six points and keeping the least."""

    def test_same_point_as_every_build_over_the_corpus(self):
        outcomes = [_assert_same_as_every_point(
                        solve_bound_state(params, RadialGrid(
                            h=H_COARSE, rmax=8.0, dim=params.dim)).profile,
                        params)
                    for params in bound_state_draws()
                    if params.p >= params.p_critical]
        assert (outcomes.count(True), outcomes.count(False)) == (30, 58)

    @pytest.mark.parametrize("power", ["critical", "supercritical"])
    def test_law_action_matches_each_built_point(self, request, power):
        # the closed form against the discrete point at each default
        # factor; a factor past lam* or out of the floating-point range
        # ranks last
        params = request.getfixturevalue(f"params_{power}")
        phi = request.getfixturevalue(
            "bound_state" if power == "critical"
            else "bound_state_super").profile
        m = _field_moments(phi, params)
        for lam in _default_lambdas(phi, params):
            pt = construct_cross_point(phi, params, lam)
            assert rel_err(experiments._law_action(m, params, lam),
                           pt.action) < 2e-6
        assert experiments._law_action(m, params, 3.0) == np.inf
        assert experiments._law_action(m, params, 1e200) == np.inf

    def test_least_factor_inside_the_window(self, grid):
        # p = 2.5, omega = -1: the action dips at f = 0.3 and rises again,
        # so the least factor is not the last one
        params = ModelParams(dim=3, b=0.5, p=2.5, gamma=1.0, omega=-1.0)
        phi = solve_bound_state(params, grid).profile
        assert _assert_same_as_every_point(phi, params)
        _, [pt] = estimate_d_n_upper(phi, params)
        assert pt.lam == _default_lambdas(phi, params)[
            experiments._CROSS_FRACTIONS.index(0.3)]


class TestCrossLevel:
    def test_cross_point_admissible(self, bound_state, params_critical):
        pt = construct_cross_point(bound_state.profile, params_critical, 1.05)
        assert pt.nehari < 0
        assert abs(pt.virial) < 1e-8 * grad_norm_sq(pt.field)
        assert pt.action > 0

    def test_cross_point_builds_one_interpolant(self, bound_state,
                                                params_critical, monkeypatch):
        builds = []

        class CountingInterpolant(ProfileInterpolant):
            def __init__(self, *args, **kwargs):
                builds.append(args)
                super().__init__(*args, **kwargs)

        phi = bound_state.profile
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "ProfileInterpolant",
                          CountingInterpolant)
            pt = construct_cross_point(phi, params_critical, 1.05)
        assert len(builds) == 1
        expected = scale_dilation(scale_amplitude(phi, 1.05), pt.mu,
                                  params_critical)
        assert pt.field.values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("power", ["critical", "supercritical"])
    def test_cross_points_on_constraint(self, request, power, monkeypatch):
        params = request.getfixturevalue(f"params_{power}")
        phi = request.getfixturevalue(
            "bound_state" if power == "critical" else "bound_state_super")
        probes, builds = [], []

        def counting_dilate(*args):
            probes.append(args)
            return _dilate(*args)

        class CountingInterpolant(ProfileInterpolant):
            def __init__(self, *args, **kwargs):
                builds.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(experiments, "_dilate", counting_dilate)
        monkeypatch.setattr(experiments, "ProfileInterpolant",
                            CountingInterpolant)
        _, points = estimate_d_n_upper(phi.profile, params)
        # only the least-ranked factor is built on the mesh
        assert len(points) == 1
        assert len(builds) == 1
        assert len(probes) <= 4
        pt, = points
        assert pt.nehari < 0
        assert abs(pt.virial) <= 1e-12 * max(1.0, grad_norm_sq(pt.field))

    def test_cross_point_frees_its_interpolant(self, bound_state,
                                               params_critical, monkeypatch):
        # the root search must not tie the interpolant into a reference
        # cycle, which only the cyclic collector would free
        refs = []

        class TrackedInterpolant(ProfileInterpolant):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(experiments, "ProfileInterpolant",
                            TrackedInterpolant)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            construct_cross_point(bound_state.profile, params_critical, 1.05)
            assert len(refs) == 1 and refs[0]() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_needs_amplitude_above_one(self, bound_state, params_critical):
        with pytest.raises(ParameterError):
            construct_cross_point(bound_state.profile, params_critical, 0.9)

    def test_rejects_negative_dilation_coefficient(self, bound_state,
                                                   params_critical):
        # far outside the admissible amplitude window
        with pytest.raises(ParameterError):
            construct_cross_point(bound_state.profile, params_critical, 3.0)

    def test_no_cross_point_keeps_each_reason(self, bound_state,
                                              params_critical, monkeypatch):
        # lam* = 1.25: the factors 0.9 and 3.0, one below the window and
        # one past it
        monkeypatch.setattr(experiments, "_CROSS_FRACTIONS", (-0.4, 8.0))
        low, high = _default_lambdas(bound_state.profile, params_critical)
        assert low == pytest.approx(0.9, rel=1e-2)
        assert high == pytest.approx(3.0, rel=1e-2)
        with pytest.raises(ParameterError) as info:
            estimate_d_n_upper(bound_state.profile, params_critical)
        msg = str(info.value)
        assert f"lambda={low}: need an amplitude factor lam > 1" in msg
        assert f"lambda={high}: " in msg

    def test_empty_default_window_is_named_once(self):
        # lam* = 0.99276 < 1: every default factor would lie below 1
        params = ModelParams(dim=1, b=0.878, p=5.7334, gamma=1.0,
                             omega=4.279)
        phi = solve_bound_state(params, RadialGrid(1e-2, 8.0, 1)).profile
        with pytest.raises(ParameterError,
                           match=r"window \(1, lam\*\) is empty, "
                                 r"lam\* = 0\.9927") as info:
            estimate_d_n_upper(phi, params)
        assert "need an amplitude factor" not in str(info.value)
        # the zero field has no lam* at all: P = 0 is named
        with pytest.raises(ParameterError, match=r"P = 0\.0"):
            estimate_d_n_upper(RadialField.zeros(phi.grid), params)

    def test_upper_bound_positive(self, bound_state, grid, params_critical):
        dn, points = estimate_d_n_upper(bound_state.profile, params_critical)
        assert dn > 0
        assert all(p.action >= dn for p in points)

    def test_levels_bundle(self, grid, params_critical, bound_state):
        levels = estimate_levels(params_critical, grid, n_random=3)
        # the reference, 3 random trials and the six ranked amplitude
        # factors, though one point is built
        dn, points = estimate_d_n_upper(bound_state.profile, params_critical)
        assert len(experiments._CROSS_FRACTIONS) == 6 and len(points) == 1
        assert levels.trial_count == 1 + 3 + 6
        assert levels.d_n_upper == dn
        assert levels.d == min(levels.d_omega, levels.d_n_upper)
        assert levels.d > 0
        assert levels.d_omega > 0
        assert levels.d_n_upper_lam == points[0].lam
        payload = levels.as_dict()
        assert set(payload) == {"d_omega", "d_n_upper", "d", "trial_count",
                                "d_n_upper_lam"}

    def test_supercritical_levels(self, bound_state_super, grid,
                                  params_supercritical):
        dn, _ = estimate_d_n_upper(bound_state_super.profile,
                                   params_supercritical)
        d_om = estimate_d_omega(params_supercritical, grid,
                                reference=bound_state_super.profile,
                                n_random=2)
        assert dn > 0 and d_om > 0


def _cross_bracket(phi, params, lam):
    """The dilated virial f(mu) of v = lam phi, the first of 1.5, 3, 6, ...
    at which it is positive, and the acceptance check of a root; None when
    amplitude scaling fails or no such point lies below 64."""
    v = scale_amplitude(phi, lam)
    m = _field_moments(v, params)
    c_I = virial_coefficient(params)
    omega = params.require_omega()
    if (m.nehari(params.gamma, omega) >= 0.0
            or m.virial(params.gamma, c_I) >= 0.0 or m.G - c_I * m.P <= 0.0):
        return None
    interp = ProfileInterpolant(v, singular_exponent=2.0 - params.b)

    def f(mu):
        return virial(_dilate(interp, v.grid, mu, params), params)

    def accepted(mu):
        pt = _field_moments(_dilate(interp, v.grid, mu, params), params)
        return (abs(pt.virial(params.gamma, c_I)) < min(1e-8 * m.G, 1e-8)
                and pt.nehari(params.gamma, omega) < 0.0)

    hi = 1.5
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 64.0:
            return None
    return f, hi, accepted


def _brent_cross_mu(phi, params, lam):
    """The dilation of the cross point as SciPy's brentq finds it: the root
    of the dilated virial in [1, hi] with xtol = rtol = 1e-15; None when
    amplitude scaling or the bracket fails or the root misses the
    acceptance check."""
    from scipy.optimize import brentq
    bracket = _cross_bracket(phi, params, lam)
    if bracket is None:
        return None
    f, hi, accepted = bracket
    mu = brentq(f, 1.0, hi, xtol=1e-15, rtol=1e-15)
    return mu if accepted(mu) else None


def _default_lambdas(phi, params):
    """The amplitude factors at which estimate_d_n_upper builds its cross
    points."""
    m = _field_moments(phi, params)
    lam_star = ((m.G / (virial_coefficient(params) * m.P))
                ** (1.0 / (params.p - 1.0)))
    return [1.0 + f * (lam_star - 1.0) for f in experiments._CROSS_FRACTIONS]


class TestBrent:
    """The law-seeded bracketed secant of construct_cross_point against
    SciPy's brentq on the same dilated virial."""

    @pytest.fixture(scope="class")
    def strong(self):
        """b = 1.5, p = 1.8, omega = 0.3 on a coarse mesh: a narrow
        amplitude window whose roots lie up to mu = 2.3, where a fixed
        point of the law alone oscillates."""
        params = ModelParams(dim=3, b=1.5, p=1.8, gamma=1.0, omega=0.3)
        grid = RadialGrid(h=5e-3, rmax=8.0, dim=3)
        return solve_bound_state(params, grid).profile, params

    @pytest.mark.parametrize("case", range(6))
    @pytest.mark.parametrize("xtol, rtol", [(1e-15, 1e-15), (1e-3, 1e-3)])
    @pytest.mark.parametrize("maxiter", [3, 100])
    def test_same_root_as_brentq(self, case, xtol, rtol, maxiter,
                                 bound_state, params_critical,
                                 bound_state_super, params_supercritical):
        # case: the case-th default amplitude factor of each power; the
        # search is never farther from the full-precision root than brentq
        # stopped at (xtol, rtol, maxiter), and is that root to 1e-14 when
        # brentq runs to xtol = rtol = 1e-15
        from scipy.optimize import brentq
        for phi, params in ((bound_state.profile, params_critical),
                            (bound_state_super.profile,
                             params_supercritical)):
            lam = _default_lambdas(phi, params)[case]
            f, hi, _ = _cross_bracket(phi, params, lam)
            ref = brentq(f, 1.0, hi, xtol=1e-15, rtol=1e-15)
            budget = brentq(f, 1.0, hi, xtol=xtol, rtol=rtol,
                            maxiter=maxiter, disp=False)
            mu = construct_cross_point(phi, params, lam).mu
            assert rel_err(mu, ref) <= max(rel_err(budget, ref), 1e-14)

    @pytest.mark.parametrize("scale", [1.0 - 1e-13, 1.0 + 1e-13])
    def test_same_root_on_states_moved_at_rounding(
            self, scale, bound_state, params_critical, bound_state_super,
            params_supercritical):
        # the fixtures' last bits move with every change of Newton's stop;
        # the full-precision pin above holds on the twelve default cases of
        # states moved by 1e-13 too, not by the luck of those bits
        from scipy.optimize import brentq
        for phi, params in ((bound_state.profile, params_critical),
                            (bound_state_super.profile,
                             params_supercritical)):
            phi = RadialField(phi.grid, scale * phi.values)
            for lam in _default_lambdas(phi, params):
                f, hi, _ = _cross_bracket(phi, params, lam)
                ref = brentq(f, 1.0, hi, xtol=1e-15, rtol=1e-15)
                mu = construct_cross_point(phi, params, lam).mu
                assert rel_err(mu, ref) <= 1e-14

    def test_cross_point_dilation_as_brentq(self, bound_state,
                                            params_critical,
                                            bound_state_super,
                                            params_supercritical):
        for phi, params in ((bound_state.profile, params_critical),
                            (bound_state_super.profile,
                             params_supercritical)):
            mu = construct_cross_point(phi, params, 1.05).mu
            assert rel_err(mu, _brent_cross_mu(phi, params, 1.05)) < 1e-14

    def test_root_as_brentq_at_strong_singularity(self, strong):
        # the virial is at rounding, eps (G + gamma^2 V + c_I P), over a
        # relative width of mu of that over mu dI/dmu = 4 gamma^2 V: no
        # root finder fixes mu more closely than that
        phi, params = strong
        c_I = virial_coefficient(params)
        compared = 0
        for lam in _default_lambdas(phi, params):
            ref = _brent_cross_mu(phi, params, lam)
            if ref is None:
                continue
            pt = construct_cross_point(phi, params, lam)
            m = _field_moments(pt.field, params)
            band = (np.finfo(float).eps * (m.G + m.V + c_I * m.P)
                    / (4.0 * params.gamma ** 2 * m.V))
            assert rel_err(pt.mu, ref) <= max(1e-14, 2.0 * band)
            compared += 1
        assert compared == 5

    @pytest.mark.parametrize("case", ["critical", "supercritical", "strong"])
    def test_points_built_where_brentq_builds(self, request, case):
        if case == "strong":
            phi, params = request.getfixturevalue("strong")
        else:
            params = request.getfixturevalue(f"params_{case}")
            phi = request.getfixturevalue(
                "bound_state" if case == "critical"
                else "bound_state_super").profile
        # construct_cross_point builds exactly the factors brentq builds,
        # and estimate_d_n_upper returns the least action among them
        built = []
        for lam in _default_lambdas(phi, params):
            if _brent_cross_mu(phi, params, lam) is None:
                with pytest.raises(ParameterError):
                    construct_cross_point(phi, params, lam)
            else:
                built.append(construct_cross_point(phi, params, lam))
        assert len(built) == (5 if case == "strong" else 6)
        least = min(built, key=lambda pt: pt.action)
        dn, [pt] = estimate_d_n_upper(phi, params)
        assert dn == least.action
        assert pt.lam == least.lam and pt.mu == least.mu
        assert pt.field.values.tobytes() == least.field.values.tobytes()

    def test_first_probe_is_the_law(self, bound_state, params_critical,
                                    monkeypatch):
        params = params_critical
        probes = []

        def recording(interp, grid, mu, prm):
            probes.append(mu)
            return _dilate(interp, grid, mu, prm)

        monkeypatch.setattr(experiments, "_dilate", recording)
        pt = construct_cross_point(bound_state.profile, params, 1.05)
        m = _field_moments(scale_amplitude(bound_state.profile, 1.05), params)
        law = (params.gamma ** 2 * m.V
               / (m.G - virial_coefficient(params) * m.P)) ** 0.25
        assert probes[0] == law
        assert probes[-1] == pt.mu
        assert rel_err(law, pt.mu) < 1e-5

    def test_no_sign_change_raises(self, bound_state, params_critical,
                                   monkeypatch):
        # a probe that returns the undilated v keeps the virial at I(v) < 0,
        # so no secant exists and the search doubles mu until it passes 64
        v = scale_amplitude(bound_state.profile, 1.05)
        probes = []

        def undilated(interp, grid, mu, prm):
            probes.append(mu)
            return v

        monkeypatch.setattr(experiments, "_dilate", undilated)
        with pytest.raises(ParameterError, match="dilation bracket failure"):
            construct_cross_point(bound_state.profile, params_critical, 1.05)
        assert len(probes) == 6
        assert all(b == 2.0 * a for a, b in zip(probes, probes[1:]))
        assert probes[-1] <= 64.0 < 2.0 * probes[-1]


class TestDichotomy:
    D = 15.0

    def test_outside_hypothesis(self, bound_state, params_critical):
        cfg = EvolveConfig(dt=1e-3, t_end=0.5)
        with pytest.raises(HypothesisError, match="outside hypothesis"):
            dichotomy_run(bound_state.profile, params_critical, self.D, cfg)

    def test_r_plus_run(self, bound_state, params_critical):
        u0 = scale_amplitude(bound_state.profile, 0.5)
        cfg = EvolveConfig(dt=5e-4, t_end=2.2, record_every=40)
        out = dichotomy_run(u0, params_critical, self.D, cfg,
                            sample_times=(0.5, 1.0, 2.0))
        assert out.initial_label is SetLabel.R_PLUS
        assert out.blowup_time is None
        assert [lab for _, lab in out.labels] == [SetLabel.R_PLUS] * 3
        assert out.consistent

    def test_k_minus_run(self, bound_state, params_critical):
        u0 = scale_amplitude(bound_state.profile, 1.4)
        cfg = EvolveConfig(dt=5e-4, t_end=float(np.pi), record_every=40)
        out = dichotomy_run(u0, params_critical, self.D, cfg,
                            sample_times=(0.1, 0.3))
        assert out.initial_label is SetLabel.K_MINUS
        assert out.blowup_time is not None
        assert out.consistent

    def test_supercritical_k_minus(self, bound_state_super,
                                   params_supercritical):
        u0 = scale_mass_preserving(
            scale_amplitude(bound_state_super.profile, 1.0), 3.0)
        d = 13.59
        assert action(u0, params_supercritical) < d
        cfg = EvolveConfig(dt=5e-4, t_end=float(np.pi), record_every=40)
        out = dichotomy_run(u0, params_supercritical, d, cfg,
                            sample_times=(0.05,))
        assert out.initial_label is SetLabel.K_MINUS
        assert out.blowup_time is not None


class TestDichotomyVerdict:
    """Each inconsistency the verdict names, with evolve and classify
    stubbed: a run reaching these cases is not cheap."""

    def verdict(self, monkeypatch, params_critical, label0, later,
                blowup_time, snap_amplitude=0.1):
        grid = RadialGrid(h=0.05, rmax=8.0, dim=3)
        u0 = RadialField.from_function(grid, lambda r: 0.1 * np.exp(-r ** 2))
        snap = RadialField.from_function(
            grid, lambda r: snap_amplitude * np.exp(-r ** 2))
        d = 2.0 * action(u0, params_critical)

        def stub_evolve(u, params, cfg):
            assert cfg.snapshot_times == (0.5,)
            return EvolveResult(snapshots=[(0.5, snap)], series=None,
                                final=snap, final_time=0.7,
                                blowup_time=blowup_time)

        monkeypatch.setattr(experiments, "evolve", stub_evolve)
        monkeypatch.setattr(experiments, "classify",
                            lambda u, params, d: label0 if u is u0 else later)
        out = dichotomy_run(u0, params_critical, d,
                            EvolveConfig(dt=1e-3, t_end=1.0),
                            sample_times=(0.5, 2.0))
        assert out.labels == [(0.5, later)]
        assert out.hnorm_max == h_omega_norm_sq(snap, params_critical)
        return out

    @pytest.mark.parametrize("label0, later, blowup_time, amplitude, detail", [
        (SetLabel.K_MINUS, SetLabel.K_MINUS, None, 0.1,
         "negative-cone state did not raise the blow-up flag"),
        (SetLabel.R_PLUS, SetLabel.R_PLUS, 0.7, 0.1,
         "bounded-label state raised the blow-up flag"),
        (SetLabel.K_PLUS, SetLabel.K_PLUS, 0.7, 0.1,
         "bounded-label state raised the blow-up flag"),
        (SetLabel.R_PLUS, SetLabel.K_MINUS, None, 0.1,
         "label changed along the flow"),
        (SetLabel.K_MINUS, SetLabel.R_PLUS, None, 0.1,
         "negative-cone state did not raise the blow-up flag; "
         "label changed along the flow"),
        (SetLabel.R_MINUS_ONLY, SetLabel.K_PLUS, None, 0.1,
         "label changed along the flow"),
    ], ids=["k_minus_no_flag", "r_plus_flag", "k_plus_flag", "label_changed",
            "k_minus_no_flag_and_label_changed", "r_minus_only_changed"])
    def test_each_problem_named(self, monkeypatch, params_critical, label0,
                                later, blowup_time, amplitude, detail):
        out = self.verdict(monkeypatch, params_critical, label0, later,
                           blowup_time, amplitude)
        assert not out.consistent
        assert out.detail == detail

    @pytest.mark.parametrize("blowup_time", [None, 0.7])
    def test_k_plus_h_norm_bound(self, monkeypatch, params_critical,
                                 blowup_time):
        # the bound 2 d (p+1)/(p-1) = 12 action(u0) is reached by a snapshot
        # of 30 times the amplitude; with the flag as well both are named
        out = self.verdict(monkeypatch, params_critical, SetLabel.K_PLUS,
                           SetLabel.K_PLUS, blowup_time, 3.0)
        assert out.hnorm_max >= out.hnorm_bound
        problems = [f"H norm {out.hnorm_max} reached the global-existence "
                    f"bound {out.hnorm_bound}"]
        if blowup_time is not None:
            problems.append("bounded-label state raised the blow-up flag")
        assert not out.consistent
        assert out.detail == "; ".join(problems)

    @pytest.mark.parametrize("label0, blowup_time", [
        (SetLabel.K_MINUS, 0.7), (SetLabel.R_PLUS, None),
        (SetLabel.K_PLUS, None), (SetLabel.R_MINUS_ONLY, 0.7)])
    def test_consistent_has_no_detail(self, monkeypatch, params_critical,
                                      label0, blowup_time):
        out = self.verdict(monkeypatch, params_critical, label0, label0,
                           blowup_time)
        assert out.consistent and out.detail == ""
        assert (out.hnorm_bound is None) == (label0 is not SetLabel.K_PLUS)


class TestStability:
    def test_unperturbed_orbit_stays_put(self, params_subcritical, grid):
        res = stability_run(params_subcritical, grid, q=1.0, eps=0.0,
                            horizon=5.0, dt=2.5e-3, n_samples=10)
        assert res.sup_distance < 1e-4

    def test_small_perturbation_stays_close(self, params_subcritical, grid):
        eps = 1e-2
        res = stability_run(params_subcritical, grid, q=1.0, eps=eps,
                            horizon=5.0, dt=5e-3, n_samples=10, seed=5)
        assert res.initial_distance == pytest.approx(eps, rel=0.5)
        assert res.sup_distance <= 5 * eps
        assert res.blowup_time is None

    def test_no_minimizer_above_critical_mass_raises(self, params_critical):
        # q = 70 exceeds the soliton mass 59.95: there is no orbit to test
        grid = RadialGrid(h=1e-2, rmax=8.0, dim=3)
        with pytest.raises(gs.EnergyUnboundedError):
            stability_run(params_critical, grid, q=70.0, eps=0.0,
                          horizon=1.0, dt=5e-3)


class TestThresholdSweep:
    def test_rows_and_outcomes(self, soliton, grid, params_critical, tmp_path):
        cfg = EvolveConfig(dt=5e-4, t_end=float(np.pi), record_every=40)
        result = threshold_sweep(soliton.profile, params_critical, grid,
                                 c_values=(0.9, 1.1), lambda_values=(1.65,),
                                 cfg=cfg)
        by_c = {row.c: row for row in result.rows}
        assert by_c[0.9].outcome == "global_bounded"
        assert by_c[0.9].max_grad_ratio <= 3.0
        assert by_c[1.1].outcome == "blowup"
        assert by_c[1.1].t_blow <= 1.1 * by_c[1.1].t_pred
        path = tmp_path / "sweep.csv"
        result.to_csv(path, metadata={"seed": 1})
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# seed = 1"
        assert lines[1] == "c,lambda,outcome,t_blow,t_pred,max_grad_ratio"
        assert len(lines) == 4

    def test_worker_pool_matches_serial(self, soliton, grid, params_critical):
        cfg = EvolveConfig(dt=2e-3, t_end=0.5, record_every=20)
        serial = threshold_sweep(soliton.profile, params_critical, grid,
                                 c_values=(0.5,), lambda_values=(1.0, 1.3),
                                 cfg=cfg, workers=1)
        pooled = threshold_sweep(soliton.profile, params_critical, grid,
                                 c_values=(0.5,), lambda_values=(1.0, 1.3),
                                 cfg=cfg, workers=2)
        for a, b in zip(serial.rows, pooled.rows):
            assert a == b

    @pytest.fixture()
    def coarse_sweep(self, params_critical):
        """Profile, parameters and mesh of a sweep on a coarse mesh."""
        coarse = RadialGrid(h=0.05, rmax=8.0, dim=3)
        bump = RadialField.from_function(coarse, lambda r: np.exp(-r ** 2))
        return bump, params_critical, coarse

    @pytest.mark.parametrize("workers, jobs, cpus, pool_size", [
        (8, 3, 2, 2), (8, 3, 16, 3), (2, 3, 16, 2), (8, 1, 16, None),
        (8, 3, 1, None), (1, 3, 16, None)])
    def test_workers_clamped(self, coarse_sweep, monkeypatch, workers, jobs,
                             cpus, pool_size):
        sizes = []
        monkeypatch.setattr(experiments, "_sweep_row",
                            lambda *args: SweepRow(args[-2], args[-1],
                                                   "global_bounded", None,
                                                   None, 1.0))

        class RecordingPool:
            # records max_workers and runs every job inline: no process
            # starts
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                result = fn(*args)
                return type("Done", (), {"result": lambda self: result})()

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        cfg = EvolveConfig(dt=1e-3, t_end=0.1)
        result = threshold_sweep(*coarse_sweep,
                                 c_values=np.linspace(0.9, 1.1, jobs),
                                 lambda_values=(1.0,), cfg=cfg,
                                 workers=workers)
        assert len(result.rows) == jobs
        assert sizes == ([] if pool_size is None else [pool_size])

    def test_failed_row_keeps_reason(self, coarse_sweep, monkeypatch,
                                     tmp_path):
        def broken(*args, **kwargs):
            raise RuntimeError("stepper exploded")

        monkeypatch.setattr(experiments, "evolve", broken)
        cfg = EvolveConfig(dt=1e-3, t_end=0.1)
        result = threshold_sweep(*coarse_sweep, c_values=(1.0,),
                                 lambda_values=(1.0,), cfg=cfg)
        row = result.rows[0]
        assert row.outcome == "failed"
        assert row.reason == "RuntimeError: stepper exploded"
        assert result.as_dict()["rows"][0]["reason"] == row.reason
        path = tmp_path / "sweep.csv"
        result.to_csv(path)
        assert path.read_text().split("\n")[0] == (
            "c,lambda,outcome,t_blow,t_pred,max_grad_ratio")

    def test_pool_side_failure_keeps_reason(self, coarse_sweep, monkeypatch):
        # dt above the trap-period bound: evolve raises inside each worker
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        cfg = EvolveConfig(dt=0.1, t_end=0.5)
        result = threshold_sweep(*coarse_sweep, c_values=(0.9, 1.0),
                                 lambda_values=(1.0,), cfg=cfg, workers=2)
        assert [(row.c, row.outcome) for row in result.rows] == [
            (0.9, "failed"), (1.0, "failed")]
        for row in result.rows:
            assert row.reason.startswith("PreconditionError: dt = 0.1 does "
                                         "not resolve the trap period")

    def test_requires_critical(self, soliton, grid, params_subcritical):
        cfg = EvolveConfig(dt=1e-3, t_end=0.5)
        with pytest.raises(ParameterError):
            threshold_sweep(soliton.profile, params_subcritical, grid,
                            c_values=(1.0,), lambda_values=(1.0,), cfg=cfg)
