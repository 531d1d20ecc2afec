import math

import numpy as np
import pytest

from gpelab.core import (ModelParams, ParameterError, RadialField,
                         RadialGrid, apply_laplacian, grad_norm_sq,
                         integrate_radial, mass, variance)
from gpelab.closedforms import (BlowupFamilyParams, CausticError,
                                ProfileInterpolant, blowup_family,
                                caustic_time, discrete_oscillator_mode,
                                lens_forward, lens_inverse,
                                minimal_mass_initial, minimal_mass_solution,
                                oscillator_mode, snapshot_sampler,
                                _minimal_mass_values)
from gpelab.groundstate import solve_soliton, soliton_grid

from helpers import gp_residual_l2, rel_err


@pytest.fixture(scope="module")
def family(soliton):
    return BlowupFamilyParams(theta0=0.3, T=0.55, lambda0=1.0)


@pytest.fixture(scope="module")
def q_interp(soliton):
    return ProfileInterpolant(soliton.profile, singular_exponent=1.5)


class TestOscillatorMode:
    def test_rayleigh_quotient(self, grid, params_critical):
        phi = oscillator_mode(params_critical, grid)
        ray = (grad_norm_sq(phi) + variance(phi)) / mass(phi)
        assert rel_err(ray, 3.0) < 1e-4

    def test_norm_value(self, grid, params_critical):
        phi = oscillator_mode(params_critical, grid)
        # pi^(-N) (pi/gamma)^(N/2)
        assert rel_err(mass(phi), np.pi ** -3 * np.pi ** 1.5) < 1e-9

    def test_uncertainty_equality(self, grid, params_critical):
        phi = oscillator_mode(params_critical, grid)
        bound = (2.0 / 3.0) * math.sqrt(grad_norm_sq(phi) * variance(phi))
        assert abs(mass(phi) - bound) / mass(phi) < 1e-6

    def test_discrete_mode_close_to_closed_form(self, grid, params_critical):
        phi = oscillator_mode(params_critical, grid)
        mode = discrete_oscillator_mode(params_critical, grid)
        scaled = mode.values * math.sqrt(mass(phi))
        assert np.max(np.abs(scaled - phi.values)) < 1e-4 * np.max(phi.values)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_discrete_mode_is_the_ground_eigenvector(self, dim):
        params = ModelParams(dim=dim, b=0.5, p=1.5)
        h = 1e-2
        grid = RadialGrid(h=h, rmax=8.0, dim=dim)
        mode = discrete_oscillator_mode(params, grid)
        v = mode.values.real
        av = -apply_laplacian(v, grid) + grid.r ** 2 * v
        lam = integrate_radial(v * av, grid) / mass(mode)
        scale = np.max(np.abs(grid.lap_diag)) * np.max(np.abs(v))
        assert np.max(np.abs(av - lam * v)) < 1e-13 * scale
        # the ground level gamma N, not the next radial one gamma (N + 4)
        assert abs(lam - dim) < 0.5 * h ** 2
        assert abs(mass(mode) - 1.0) < 1e-14
        assert v[0] > 0.0


class TestBlowupFamily:
    def test_mass_preserved_in_time(self, family, soliton, params_critical):
        g = soliton.profile.grid
        for t in (0.5, 0.25, 0.125):
            s = blowup_family(1.0, t, soliton.profile, g, params_critical)
            assert rel_err(mass(s), soliton.mass) < 1e-6

    def test_gradient_grows_like_inverse_time(self, soliton, params_critical):
        g = soliton.profile.grid
        grads = [math.sqrt(grad_norm_sq(
            blowup_family(1.0, t, soliton.profile, g, params_critical)))
            for t in (0.1, 0.05, 0.025)]
        assert grads[1] / grads[0] == pytest.approx(2.0, rel=0.05)
        assert grads[2] / grads[1] == pytest.approx(2.0, rel=0.05)

    def test_solves_free_equation_second_order(self, params_critical):
        # reversed time orientation: S(T - t) is the collapsing solution
        devs = []
        for h in (4e-3, 2e-3):
            Q = solve_soliton(params_critical, soliton_grid(params_critical, h=h))
            g = RadialGrid(h=h, rmax=8.0, dim=3)
            devs.append(gp_residual_l2(
                lambda t: blowup_family(1.0, 0.8 - t, Q.profile, g,
                                        params_critical),
                0.4, params_critical, g, free=True))
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.15)

    def test_rejects_nonpositive_time(self, family, soliton, params_critical):
        with pytest.raises(ParameterError):
            blowup_family(1.0, 0.0, soliton.profile, soliton.profile.grid,
                          params_critical)

    def test_theta0_is_global_phase(self, soliton, params_critical):
        g = soliton.profile.grid
        a = blowup_family(1.0, 0.3, soliton.profile, g, params_critical)
        b = blowup_family(1.0, 0.3, soliton.profile, g, params_critical,
                          theta0=1.1)
        scale = np.max(np.abs(a.values))
        assert np.max(np.abs(b.values - a.values * np.exp(1.1j))) < 1e-14 * scale


class TestProfileInterpolant:
    """The spline against SciPy's not-a-knot CubicSpline on the same
    even-extended nodes, the reference it replaced."""

    @staticmethod
    def _reference(field, interp, x):
        from scipy.interpolate import CubicSpline
        r, vals = field.grid.r, np.asarray(field.values, dtype=complex)
        a, e = interp._sing if interp._sing is not None else (0.0, 1.0)
        smooth = vals - a * r ** e
        k = min(8, field.grid.n)
        nodes = np.concatenate([-r[:k][::-1], r])
        y = np.concatenate([smooth[:k][::-1], smooth])
        ax = np.abs(x)
        out = (CubicSpline(nodes, y.real)(ax)
               + 1j * CubicSpline(nodes, y.imag)(ax) + a * ax ** e)
        out[ax > field.grid.rmax] = 0.0
        return out, np.max(np.abs(y))

    @pytest.mark.parametrize("h, rmax", [(0.5, 2.0), (0.02, 8.0)],
                             ids=["n4", "n400"])
    @pytest.mark.parametrize("exponent", [None, 1.5], ids=["plain", "sing"])
    @pytest.mark.parametrize("phase", [0.0, 0.7], ids=["real", "complex"])
    def test_matches_not_a_knot_cubic_spline(self, h, rmax, exponent, phase):
        grid = RadialGrid(h=h, rmax=rmax, dim=3)
        field = RadialField.from_function(
            grid, lambda r: (1.0 + 0.3 * r ** 1.5) * np.exp(-r ** 2)
            * np.exp(1j * phase * r ** 2))
        interp = ProfileInterpolant(field, singular_exponent=exponent)
        x = np.concatenate([[0.0, -0.3 * h, -1.7, rmax, -rmax, rmax + h,
                             2.0 * rmax], grid.r,
                            np.linspace(0.0, rmax, 1001)])
        ref, scale = self._reference(field, interp, x)
        got = interp(x)
        assert np.max(np.abs(got - ref)) <= 2e-15 * scale
        assert np.all(got[np.abs(x) > rmax] == 0.0)
        assert got.dtype == complex and np.all(got.imag == 0.0) == (phase == 0)


class TestLens:
    def test_identity_at_time_zero(self, grid, params_critical):
        w = RadialField.from_function(grid, lambda r: (1 + 0.4j)
                                      * np.exp(-r ** 2 / 1.7))
        interp = ProfileInterpolant(w)

        def sampler(r, tau):
            assert abs(tau) < 1e-12
            return interp(r)

        out = lens_forward(sampler, 0.0, params_critical, grid)
        assert np.max(np.abs(out.values - w.values)) < 1e-12

    def test_mass_preservation(self, grid, params_critical):
        w = RadialField.from_function(grid, lambda r: np.exp(-r ** 2 / 2.3))
        interp = ProfileInterpolant(w)
        out = lens_forward(lambda r, tau: interp(r), 0.4, params_critical,
                           grid)
        assert rel_err(mass(out), mass(w)) < 1e-9

    def test_caustic_guard(self, grid, params_critical):
        with pytest.raises(CausticError):
            lens_forward(lambda r, tau: np.zeros_like(r),
                         caustic_time(params_critical), params_critical, grid)

    def test_inverse_requires_critical(self, grid, params_subcritical):
        with pytest.raises(ParameterError):
            lens_inverse(lambda r, s: np.zeros_like(r), 0.1,
                         params_subcritical, grid)

    def test_round_trip_identity(self, grid, params_critical):
        w = RadialField.from_function(grid, lambda r: (0.7 + 0.2j)
                                      * np.exp(-r ** 2 / 1.9))
        w_interp = ProfileInterpolant(w)
        t_trap = 0.3
        v = lens_forward(lambda r, tau: w_interp(r), t_trap, params_critical,
                         grid)
        v_interp = ProfileInterpolant(v)
        s_free = math.tan(2 * t_trap) / 2.0
        back = lens_inverse(lambda r, s: v_interp(r), s_free, params_critical,
                            grid)
        # 1e-10 target plus cubic interpolation error of the two resamplings
        assert np.max(np.abs(back.values - w.values)) < 2e-9

    def test_snapshot_sampler_time_guard(self, grid, params_critical):
        w = RadialField.from_function(grid, lambda r: np.exp(-r ** 2))
        sampler = snapshot_sampler([(0.5, w)])
        with pytest.raises(ParameterError, match="no snapshot"):
            sampler(grid.r, 0.25)


class TestMinimalMass:
    def test_initial_data_formula_matches_composite(self, family, soliton,
                                                    grid, params_critical):
        a = minimal_mass_solution(family, 0.0, params_critical,
                                  soliton.profile, grid)
        b = minimal_mass_initial(family, params_critical, soliton.profile,
                                 grid)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_critical_mass_at_all_times(self, family, soliton, grid,
                                        params_critical):
        for t in (0.0, 0.15, 0.3, 0.45):
            u = minimal_mass_solution(family, t, params_critical,
                                      soliton.profile, grid)
            assert rel_err(mass(u), soliton.mass) < 1e-6

    def test_gradient_diverges_toward_collapse(self, family, soliton, grid,
                                               params_critical):
        T = family.T
        grads = [grad_norm_sq(minimal_mass_solution(
            family, T - d * T, params_critical, soliton.profile, grid))
            for d in (0.1, 0.05, 0.025)]
        assert grads[0] < grads[1] < grads[2]

    def test_time_domain_guard(self, family, soliton, grid, params_critical):
        with pytest.raises(ParameterError):
            minimal_mass_solution(family, family.T, params_critical,
                                  soliton.profile, grid)
        with pytest.raises(ParameterError):
            minimal_mass_solution(family, -0.1, params_critical,
                                  soliton.profile, grid)

    def test_collapse_time_domain(self, soliton, grid, params_critical):
        bad = BlowupFamilyParams(theta0=0.0, T=1.0, lambda0=1.0)  # T > pi/4
        with pytest.raises(ParameterError):
            minimal_mass_solution(bad, 0.1, params_critical, soliton.profile,
                                  grid)

    def test_theta0_gauge_covariance(self, soliton, grid, params_critical):
        fa = BlowupFamilyParams(theta0=0.0, T=0.55, lambda0=1.0)
        fb = BlowupFamilyParams(theta0=0.8, T=0.55, lambda0=1.0)
        a = minimal_mass_solution(fa, 0.2, params_critical, soliton.profile,
                                  grid)
        b = minimal_mass_solution(fb, 0.2, params_critical, soliton.profile,
                                  grid)
        assert np.max(np.abs(b.values - a.values * np.exp(0.8j))) < 1e-12

    def test_gp_residual_refines_second_order(self, family, params_critical):
        devs = []
        for h in (4e-3, 2e-3):
            Q = solve_soliton(params_critical,
                              soliton_grid(params_critical, h=h))
            g = RadialGrid(h=h, rmax=8.0, dim=3)
            devs.append(gp_residual_l2(
                lambda t: minimal_mass_solution(family, t, params_critical,
                                                Q.profile, g),
                0.25, params_critical, g))
        ratio = devs[0] / devs[1]
        assert 3.5 <= ratio <= 4.5

    def test_periodicity_relation(self, family, params_critical, q_interp,
                                  grid):
        # the trig factors are pi/(2 gamma) periodic; continuing the
        # composite through the caustic with principal complex powers leaves
        # the density exactly periodic and the field periodic up to the
        # constant caustic phase (-1)^(N/2); one full trap period is exact
        t = 0.2
        r = grid.r
        base = _minimal_mass_values(family, t, params_critical, q_interp, r,
                                    extended=True)
        half = _minimal_mass_values(family, t + math.pi / 2.0, params_critical,
                                    q_interp, r, extended=True)
        full = _minimal_mass_values(family, t + math.pi, params_critical,
                                    q_interp, r, extended=True)
        assert np.max(np.abs(np.abs(half) - np.abs(base))) < 1e-8
        caustic_phase = np.power(-1.0 + 0.0j, params_critical.dim / 2.0)
        assert np.max(np.abs(half - caustic_phase * base)) < 1e-8
        assert np.max(np.abs(full - base)) < 1e-8

    def test_evolution_matches_closed_form(self, family, soliton,
                                           params_critical, grid):
        # independent cross-check: evolve the closed-form initial data and
        # compare against the closed form at later times
        from gpelab.evolve import EvolveConfig, evolve
        u0 = minimal_mass_initial(family, params_critical, soliton.profile,
                                  grid)
        cfg = EvolveConfig(dt=2e-4, t_end=0.2, record_every=100,
                           snapshot_times=(0.1, 0.2))
        res = evolve(u0, params_critical, cfg)
        for ts, f in res.snapshots:
            closed = minimal_mass_solution(family, float(ts), params_critical,
                                           soliton.profile, grid)
            dev = math.sqrt(mass(f - closed) / mass(closed))
            assert dev < 5e-3

    def test_evolution_is_second_order_in_time(self, family, soliton,
                                               params_critical):
        # halving dt cuts the deviation from the closed form at t = 0.5 by
        # 4.28 (3.4e-2 to 8.0e-3; 4.37 for the next halving), where a
        # first-order step would give about 2.  At t = 0.45 the h = 4e-3
        # floor breaks the ratio (6.5, then 1.3)
        from gpelab.evolve import EvolveConfig, evolve
        g = RadialGrid(h=4e-3, rmax=14.0, dim=3)
        u0 = minimal_mass_initial(family, params_critical, soliton.profile, g)
        closed = minimal_mass_solution(family, 0.5, params_critical,
                                       soliton.profile, g)
        devs = []
        for dt in (2e-4, 1e-4):
            cfg = EvolveConfig(dt=dt, t_end=0.5, record_every=500,
                               snapshot_times=(0.5,))
            (_, f), = evolve(u0, params_critical, cfg).snapshots
            devs.append(math.sqrt(mass(f - closed) / mass(closed)))
        assert 3.5 <= devs[0] / devs[1] <= 4.5
