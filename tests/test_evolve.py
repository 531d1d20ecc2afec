import math
from dataclasses import replace

import numpy as np
import pytest

import gpelab.evolve as evolve_module
from gpelab.core import (ModelParams, ParameterError, RadialField, RadialGrid,
                         apply_laplacian, default_grid, factor_operator,
                         grad_norm_sq, mass, variance)
from gpelab.evolve import (DiagnosticSeries, EvolveConfig, EvolveNaNError,
                           evolve, predict_collapse_time, virial_check)
from gpelab.closedforms import ProfileInterpolant, discrete_oscillator_mode
from gpelab.functionals import energy

from helpers import rel_err


def scaled_soliton(soliton, grid, c, lam=1.0):
    interp = ProfileInterpolant(soliton.profile)
    return RadialField(grid, c * lam ** 1.5 * interp(lam * grid.r))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            EvolveConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ParameterError):
            EvolveConfig(dt=1e-3, t_end=-1.0)
        with pytest.raises(ParameterError):
            EvolveConfig(dt=1e-3, t_end=1.0, record_every=0)
        # 2.5 would record every 5th step without a word
        for bad in (2.5, 5.0, "5"):
            with pytest.raises(ParameterError, match="record_every"):
                EvolveConfig(dt=1e-3, t_end=1.0, record_every=bad)
        assert EvolveConfig(dt=1e-3, t_end=1.0,
                            record_every=np.int64(5)).record_every == 5
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="finite"):
                EvolveConfig(dt=bad, t_end=1.0)
            with pytest.raises(ParameterError, match="finite"):
                EvolveConfig(dt=1e-3, t_end=bad)
            # nan would switch blow-up detection off without a word
            with pytest.raises(ParameterError, match="blowup_gradient_factor"):
                EvolveConfig(dt=1e-3, t_end=1.0, blowup_gradient_factor=bad)
            with pytest.raises(ParameterError, match="coupling"):
                EvolveConfig(dt=1e-3, t_end=1.0, coupling=bad)

    @pytest.mark.parametrize("ts", [-0.1, 0.35 + 1e-13, math.nan])
    def test_snapshot_time_outside_span_rejected_at_build(self, ts):
        with pytest.raises(ParameterError, match="snapshot time"):
            EvolveConfig(dt=1e-3, t_end=0.35, snapshot_times=(0.1, ts))
        cfg = EvolveConfig(dt=1e-3, t_end=0.35)
        with pytest.raises(ParameterError, match="snapshot time"):
            replace(cfg, snapshot_times=(ts,))
        with pytest.raises(ParameterError, match="snapshot time"):
            replace(EvolveConfig(dt=1e-3, t_end=1.0, snapshot_times=(0.5,)),
                    t_end=0.4)

    def test_trap_resolution_required(self, grid, params_critical):
        u0 = RadialField.from_function(grid, lambda r: np.exp(-r ** 2))
        cfg = EvolveConfig(dt=0.1, t_end=1.0)  # dt > (pi/2)/200
        with pytest.raises(ParameterError, match="resolve"):
            evolve(u0, params_critical, cfg)


SERIES_FIELDS = ("t", "mass", "energy", "grad_sq", "f", "f_prime")


def max_rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestStepping:
    """The merged-phase loop with its Cayley-form solve, against the
    two-half-phase Strang step with the explicit Crank-Nicolson side."""

    @staticmethod
    def strang_reference(u0, params, dt, nsteps, coupling=1.0):
        grid = u0.grid
        rb = grid.r_pow(-params.b)
        trap = params.gamma ** 2 * grid.r_pow(2.0)
        solve = factor_operator(grid, trap, scale=0.5j * dt, shift=1.0)

        def half(v):
            return v * np.exp(0.5j * dt * coupling * rb
                              * np.abs(v) ** (params.p - 1.0))

        v = u0.values.astype(complex)
        for _ in range(nsteps):
            v = half(v)
            v = solve(v - 0.5j * dt * (-apply_laplacian(v, grid) + trap * v))
            v = half(v)
        return v

    @pytest.mark.parametrize("coupling", [1.0, 0.5])
    def test_matches_two_half_phase_strang(self, params_critical, coupling):
        # the coupling scales the phase angle, not the rate
        grid = RadialGrid(h=1e-2, rmax=8.0, dim=3)
        u0 = RadialField.from_function(
            grid, lambda r: 1.2 * np.exp(-r ** 2 / 2) * (1.0 + 0.2j * r))
        want = self.strang_reference(u0, params_critical, 1e-3, 1000,
                                     coupling)
        res = evolve(u0, params_critical,
                     EvolveConfig(dt=1e-3, t_end=1.0, record_every=1000,
                                  coupling=coupling))
        assert res.final_time == 1.0
        assert max_rel(res.final.values, want) < 1e-11

    def test_cayley_step_matches_explicit_side(self, grid, params_critical):
        # coupling 0 leaves only the linear step: (1+A)^(-1)(1-A) v
        u0 = RadialField.from_function(
            grid, lambda r: np.exp(-r ** 2 / 2) * (1.0 + 0.3j * r))
        dt = 1e-3
        res = evolve(u0, params_critical,
                     EvolveConfig(dt=dt, t_end=dt, coupling=0.0))
        trap = grid.r_pow(2.0)
        solve = factor_operator(grid, trap, scale=0.5j * dt, shift=1.0)
        v = u0.values
        want = solve(v - 0.5j * dt * (-apply_laplacian(v, grid) + trap * v))
        assert max_rel(res.final.values, want) < 1e-13

    @pytest.mark.parametrize("free", [False, True])
    def test_record_cadence_bit_identical(self, grid, params_critical, free):
        # recording closes a copy, never the propagated state; t_end = 0.2345
        # ends on a shortened step
        u0 = RadialField.from_function(
            grid, lambda r: 1.1 * np.exp(-r ** 2 / 2) * (1.0 + 0.2j * r))
        extra = (dict(free_equation=True) if free
                 else dict(snapshot_times=(0.1,)))
        dense, sparse = (evolve(u0, params_critical,
                                EvolveConfig(dt=1e-3, t_end=0.2345,
                                             record_every=k, **extra))
                         for k in (1, 7))
        shared = np.isin(dense.series.t, sparse.series.t)
        assert shared.sum() == len(sparse.series.t) > 30
        for name in SERIES_FIELDS:
            assert np.array_equal(getattr(dense.series, name)[shared],
                                  getattr(sparse.series, name))
        assert len(dense.snapshots) == len(sparse.snapshots)
        for (ta, fa), (tb, fb) in zip(dense.snapshots, sparse.snapshots):
            assert ta == tb and np.array_equal(fa.values, fb.values)
        assert np.array_equal(dense.final.values, sparse.final.values)

    def test_one_phase_and_one_solve_per_step(self, grid, params_critical,
                                              monkeypatch):
        counts = {"phase": 0, "solve": 0}
        phase, factor = evolve_module._phase, evolve_module.factor_operator

        def counted_phase(eta, tau):
            counts["phase"] += 1
            return phase(eta, tau)

        def counted_factor(*args, **kwargs):
            solve = factor(*args, **kwargs)

            def counted_solve(rhs):
                counts["solve"] += 1
                return solve(rhs)
            return counted_solve

        monkeypatch.setattr(evolve_module, "_phase", counted_phase)
        monkeypatch.setattr(evolve_module, "factor_operator", counted_factor)
        u0 = RadialField.from_function(grid, lambda r: np.exp(-r ** 2 / 2))
        cfg = EvolveConfig(dt=1e-3, t_end=0.0505, record_every=4,
                           snapshot_times=(0.02,))
        res = evolve(u0, params_critical, cfg)
        # 20 steps to 0.02, then 30 whole steps and one of 5e-4; records at
        # every 4th step and at both segment ends
        nsteps, nrecords = 51, 5 + 8
        assert len(res.series.t) == 1 + nrecords
        assert counts == {"phase": nsteps + nrecords, "solve": nsteps}


class TestPhase:
    def test_matches_exp_on_the_unit_circle(self):
        # tau * eta across [0, 1e3], with the angles next to odd multiples
        # of pi, where the half-angle tangent is largest
        odd = (2.0 * np.arange(318) + 1.0) * np.pi
        x = np.concatenate((np.linspace(0.0, 1e3, 100001), odd,
                            np.nextafter(odd, 0.0), np.nextafter(odd, 2e3)))
        tau = 2e-4
        eta = x / tau
        z = evolve_module._phase(eta, tau)
        assert np.max(np.abs(z - np.exp(1j * (tau * eta)))) <= 5e-16
        assert np.max(np.abs(np.abs(z) - 1.0)) <= 5e-16
        assert np.all(np.isfinite(z))

    def test_zero_rate_is_exactly_one(self):
        z = evolve_module._phase(np.zeros(7), 0.3)
        assert np.array_equal(z, np.ones(7, complex))


class TestLinearOscillator:
    def test_discrete_mode_density_invariant(self, grid, params_critical):
        # the discrete trap eigenmode keeps its density under the linear
        # flow; with the trap inside the implicit solve this is a pure
        # Cayley rotation
        mode = discrete_oscillator_mode(params_critical, grid)
        cfg = EvolveConfig(dt=1e-3, t_end=1.0, record_every=100, coupling=0.0)
        res = evolve(mode, params_critical, cfg)
        dev = np.max(np.abs(np.abs(res.final.values) - np.abs(mode.values)))
        assert dev < 1e-8

    def test_global_phase(self, grid, params_critical):
        # u(t) = e^(-i gamma N t) u0 for the ground mode
        mode = discrete_oscillator_mode(params_critical, grid)
        cfg = EvolveConfig(dt=1e-3, t_end=1.0, record_every=100, coupling=0.0)
        res = evolve(mode, params_critical, cfg)
        ratio = res.final.values[:1000] / mode.values[:1000]
        assert np.max(np.abs(ratio - np.exp(-3.0j))) < 1e-5

    def test_sampled_closed_form_within_grid_error(self, grid,
                                                   params_critical):
        # the sampled Gaussian is not a discrete eigenvector; its density
        # wobble is the O(h^2) mode contamination
        u0 = RadialField.from_function(grid, lambda r: np.pi ** -1.5
                                       * np.exp(-r ** 2 / 2))
        cfg = EvolveConfig(dt=1e-3, t_end=0.5, record_every=100, coupling=0.0)
        res = evolve(u0, params_critical, cfg)
        dev = np.max(np.abs(np.abs(res.final.values) - np.abs(u0.values)))
        assert dev < 5e-6

    def test_linear_energy_exactly_conserved(self, grid, params_critical):
        mode = discrete_oscillator_mode(params_critical, grid)
        cfg = EvolveConfig(dt=1e-3, t_end=1.0, record_every=50, coupling=0.0)
        res = evolve(mode, params_critical, cfg)
        drift = np.max(np.abs(res.series.energy - res.series.energy[0]))
        assert drift < 1e-12


class TestConservation:
    def test_mass_conserved(self, grid, params_subcritical):
        u0 = RadialField.from_function(grid, lambda r: np.exp(-r ** 2 / 2))
        cfg = EvolveConfig(dt=1e-3, t_end=2.0, record_every=100)
        res = evolve(u0, params_subcritical, cfg)
        drift = np.max(np.abs(res.series.mass - res.series.mass[0]))
        drift /= res.series.mass[0] * res.series.t[-1]
        assert drift < 1e-10

    def test_mass_conserved_one_dimension(self):
        # N = 1: the zero-flux origin face keeps the Crank-Nicolson step
        # unitary
        params = ModelParams(dim=1, b=0.5, p=3.0, gamma=1.0)
        line = RadialGrid(h=1e-2, rmax=8.0, dim=1)
        u0 = RadialField.from_function(line, lambda r: np.exp(-r ** 2 / 2))
        res = evolve(u0, params, EvolveConfig(dt=1e-3, t_end=1.0,
                                              record_every=50))
        drift = np.max(np.abs(res.series.mass - res.series.mass[0]))
        assert drift < 1e-10 * res.series.mass[0]

    def test_energy_drift_second_order(self, grid, params_subcritical):
        u0 = RadialField.from_function(grid, lambda r: 0.5 * np.exp(-r ** 2 / 2))
        drifts = []
        for dt in (1e-3, 5e-4):
            cfg = EvolveConfig(dt=dt, t_end=2.0, record_every=int(0.1 / dt))
            res = evolve(u0, params_subcritical, cfg)
            drifts.append(np.max(np.abs(res.series.energy
                                        - res.series.energy[0])))
        assert drifts[0] < 1e-6
        assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=0.3)

    def test_gauge_covariance(self, grid, params_critical):
        u0 = RadialField.from_function(grid, lambda r: np.exp(-r ** 2 / 2))
        theta = 0.87
        cfg = EvolveConfig(dt=1e-3, t_end=0.3, record_every=100)
        res_a = evolve(u0, params_critical, cfg)
        res_b = evolve(RadialField(grid, u0.values * np.exp(1j * theta)),
                       params_critical, cfg)
        dev = np.max(np.abs(res_b.final.values
                            - res_a.final.values * np.exp(1j * theta)))
        assert dev < 1e-11


class TestDiagnosticRow:
    @pytest.mark.parametrize("coupling", [1.0, 0.5])
    def test_first_row_equals_functionals(self, grid, params_critical,
                                          coupling):
        # the recorded row and the public functionals share one quadrature
        u0 = RadialField.from_function(
            grid, lambda r: 0.8 * np.exp(-r ** 2 / 2) * (1.0 + 0.3j * r))
        cfg = EvolveConfig(dt=1e-3, t_end=0.01, coupling=coupling)
        s = evolve(u0, params_critical, cfg).series
        for got, want in ((s.mass[0], mass(u0)),
                          (s.energy[0], energy(u0, params_critical, coupling)),
                          (s.grad_sq[0], grad_norm_sq(u0)),
                          (s.f[0], variance(u0))):
            assert rel_err(got, want) < 1e-12


class TestStandingWavePersistence:
    def test_subcritical_soliton_persists(self, params_subcritical, grid):
        # derived tolerance: deviation is pure splitting error, verified to
        # shrink 4x at dt/2
        from gpelab.groundstate import solve_bound_state
        phi = solve_bound_state(params_subcritical, grid)
        devs = []
        for dt in (1e-3, 5e-4):
            cfg = EvolveConfig(dt=dt, t_end=10.0, record_every=2000,
                               snapshot_times=(2.0, 5.0, 10.0))
            res = evolve(phi.profile, params_subcritical, cfg)
            dev = max(np.sqrt(mass(RadialField(
                grid, np.abs(f.values) - phi.profile.values.real)))
                for _, f in res.snapshots)
            devs.append(dev)
        assert devs[1] <= 1e-4
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.3)


class TestCollapse:
    def test_threshold_energy_identity(self, soliton, grid, params_critical):
        # 2E(c Q) = |c|^2 ||grad Q||^2 (1 - |c|^s) + gamma^2 f(0): at c=1
        # the criterion boundary is met exactly
        u0 = scaled_soliton(soliton, grid, 1.0)
        E = energy(u0, params_critical)
        f0 = variance(u0)
        assert abs(2 * E - f0) < 2e-3 * f0
        u1 = scaled_soliton(soliton, grid, 1.1)
        assert variance(u1) - 2 * energy(u1, params_critical) > 0

    def test_predicted_time_matches_flagged_blowup(self, soliton, grid,
                                                   params_critical):
        u0 = scaled_soliton(soliton, grid, 1.1)
        tau = predict_collapse_time(u0, params_critical)
        assert tau is not None
        cfg = EvolveConfig(dt=2e-4, t_end=1.2 * tau, record_every=10)
        res = evolve(u0, params_critical, cfg)
        assert res.blowup_time is not None
        assert res.blowup_time <= 1.1 * tau

    def test_subthreshold_returns_none(self, soliton, grid, params_critical):
        u0 = scaled_soliton(soliton, grid, 0.9)
        assert predict_collapse_time(u0, params_critical) is None

    def test_negative_energy_always_predicts(self, soliton, grid,
                                              params_critical):
        u0 = scaled_soliton(soliton, grid, 3.0)
        assert energy(u0, params_critical) < 0.0
        assert predict_collapse_time(u0, params_critical) is not None

    def test_requires_critical(self, grid, params_subcritical):
        u0 = RadialField.from_function(grid, lambda r: np.exp(-r ** 2))
        with pytest.raises(ParameterError):
            predict_collapse_time(u0, params_subcritical)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_criterion_tol_must_be_finite(self, grid, params_critical, tol):
        # nan would make the criterion's comparison never fail
        u0 = RadialField.from_function(grid, lambda r: np.exp(-r ** 2))
        with pytest.raises(ParameterError, match="criterion_tol"):
            predict_collapse_time(u0, params_critical, criterion_tol=tol)

    @pytest.mark.parametrize("amp", [2.0, 5.0])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_raises_with_last_recorded_time(self, amp):
        # at N = 1 any p is admissible: r^(-b)|u|^499 overflows once |u|
        # passes about 4.1 (at once from amplitude 5, after some steps
        # from 2), the phase turns NaN, and the error carries the time of
        # the last finite record
        params = ModelParams(dim=1, b=0.5, p=500.0, gamma=1.0, omega=0.0)
        grid = RadialGrid(h=1e-2, rmax=8.0, dim=1)
        u0 = RadialField(grid, amp * np.exp(-grid.r ** 2 / 2))
        with pytest.raises(EvolveNaNError, match="last valid time") as err:
            evolve(u0, params, EvolveConfig(dt=1e-3, t_end=0.05,
                                            record_every=2,
                                            blowup_gradient_factor=1e300))
        t_last = err.value.t_last
        assert 0.0 <= t_last < 0.05
        assert t_last / 2e-3 == pytest.approx(round(t_last / 2e-3), abs=1e-9)
        assert (t_last == 0.0) == (amp == 5.0)

    def test_blowup_monotone_near_collapse(self, soliton, grid,
                                           params_critical):
        u0 = scaled_soliton(soliton, grid, 1.1)
        cfg = EvolveConfig(dt=2e-4, t_end=1.0, record_every=10)
        res = evolve(u0, params_critical, cfg)
        g = res.series.grad_sq
        started = np.nonzero(g > 10.0 * g[0])[0]
        assert len(started) > 2
        tail = g[started[0]:]
        assert np.all(np.diff(tail) > 0)


class TestVirialLaw:
    def test_critical_fit_on_bounded_run(self, grid, params_critical):
        # gentle trap-adapted state: the recorded variance is an exact
        # sinusoid determined by f(0), f'(0), E
        u0 = RadialField.from_function(grid, lambda r: 0.5 * np.exp(-r ** 2 / 2))
        cfg = EvolveConfig(dt=5e-4, t_end=2.0, record_every=40)
        res = evolve(u0, params_critical, cfg)
        dev = virial_check(res.series, params_critical)
        assert dev < 1e-5 * np.max(np.abs(res.series.f))

    def test_linear_eigenmode_variance_constant(self, grid, params_critical):
        mode = discrete_oscillator_mode(params_critical, grid)
        cfg = EvolveConfig(dt=1e-3, t_end=1.0, record_every=50, coupling=0.0)
        res = evolve(mode, params_critical, cfg)
        assert np.max(np.abs(res.series.f - res.series.f[0])) < 1e-10
        # fit amplitude degenerates to the O(h^2) gap between the discrete
        # gradient and variance of the mode
        dev = virial_check(res.series, params_critical)
        assert dev < 1e-6

    def test_noncritical_identity_second_order(self, grid, params_subcritical):
        u0 = RadialField.from_function(grid, lambda r: 0.5 * np.exp(-r ** 2 / 2))
        devs = []
        for dt in (1e-3, 5e-4):
            cfg = EvolveConfig(dt=dt, t_end=2.0, record_every=100)
            res = evolve(u0, params_subcritical, cfg)
            devs.append(virial_check(res.series, params_subcritical))
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.3)

    def test_horizon_too_short(self, params_critical):
        series = DiagnosticSeries(t=np.array([0.0, 0.1]),
                                  mass=np.ones(2), energy=np.ones(2),
                                  grad_sq=np.ones(2), f=np.ones(2),
                                  f_prime=np.zeros(2))
        with pytest.raises(ParameterError, match="horizon"):
            virial_check(series, params_critical)

    def test_free_series_rejected(self, params_subcritical):
        # the free variance has no trap term; the trapped law gave 48.29 here
        g = RadialGrid(h=1e-2, rmax=12.0, dim=3)
        u0 = RadialField.from_function(g, lambda r: 0.5 * np.exp(-r ** 2 / 2))
        free, trapped = (evolve(u0, params_subcritical,
                                EvolveConfig(dt=2e-3, t_end=0.5,
                                             record_every=5, free_equation=fe))
                         for fe in (True, False))
        assert free.series.free_equation and not trapped.series.free_equation
        with pytest.raises(ParameterError, match="free equation"):
            virial_check(free.series, params_subcritical)
        assert virial_check(trapped.series, params_subcritical) < 1e-2

    def test_free_flag_not_written_to_csv(self, tmp_path, params_critical):
        g = RadialGrid(h=1e-2, rmax=12.0, dim=3)
        u0 = RadialField.from_function(g, lambda r: 0.5 * np.exp(-r ** 2 / 2))
        series = evolve(u0, params_critical,
                        EvolveConfig(dt=2e-3, t_end=0.02,
                                     free_equation=True)).series
        plain = DiagnosticSeries(*(getattr(series, k) for k in SERIES_FIELDS))
        series.to_csv(tmp_path / "free.csv")
        plain.to_csv(tmp_path / "plain.csv")
        assert ((tmp_path / "free.csv").read_bytes()
                == (tmp_path / "plain.csv").read_bytes())

    @pytest.mark.parametrize("dim, b, p", [(1, 0.5, 3.0), (2, 0.5, 2.0),
                                           (3, 0.5, 2.0), (3, 1.5, 1.5)],
                             ids=["N1", "N2", "N3", "N3_b1.5"])
    def test_fprime_consistent_with_differences(self, dim, b, p):
        # f' is the time derivative of the discrete f: it matches a centred
        # difference of f at dt = 1e-5 to that difference's own error
        params = ModelParams(dim=dim, b=b, p=p, gamma=1.0, omega=0.0)
        grid = default_grid(params)
        u0 = RadialField(grid, np.exp(-grid.r ** 2 / 2 + 0.3j * grid.r ** 2))
        res = evolve(u0, params, EvolveConfig(dt=1e-5, t_end=1e-4))
        t, f, fp = res.series.t, res.series.f, res.series.f_prime
        fd = (f[2:] - f[:-2]) / (t[2:] - t[:-2])
        assert len(fd) == 9
        assert np.all(np.abs(fp[1:-1] - fd) <= 1e-7 * np.abs(fp[1:-1]))


class TestSnapshotsAndExport:
    def test_snapshot_times_exact(self, grid, params_critical):
        u0 = RadialField.from_function(grid, lambda r: np.exp(-r ** 2))
        cfg = EvolveConfig(dt=1e-3, t_end=0.35, record_every=50,
                           snapshot_times=(0.1234, 0.35))
        res = evolve(u0, params_critical, cfg)
        times = [t for t, _ in res.snapshots]
        assert any(abs(t - 0.1234) < 1e-12 for t in times)
        assert abs(res.final_time - 0.35) < 1e-12

    def test_snapshots_are_the_requested_times(self, grid, params_critical):
        # t = 0 when asked for, no stopping state appended: that is `final`
        u0 = RadialField.from_function(grid, lambda r: np.exp(-r ** 2))
        cfg = EvolveConfig(dt=1e-3, t_end=0.35, record_every=50,
                           snapshot_times=(0.1234, 0.0))
        res = evolve(u0, params_critical, cfg)
        assert [t for t, _ in res.snapshots] == [0.0, 0.1234]
        assert np.array_equal(res.snapshots[0][1].values, u0.values)
        assert res.final_time == 0.35
        assert res.final.grid is grid
        later = evolve(u0, params_critical,
                       replace(cfg, snapshot_times=(0.1234,)))
        assert [t for t, _ in later.snapshots] == [0.1234]
        assert np.array_equal(later.final.values, res.final.values)
        bare = evolve(u0, params_critical, replace(cfg, snapshot_times=()))
        assert bare.snapshots == [] and bare.final_time == 0.35

    def test_flagged_state_is_final_only(self, soliton, grid,
                                         params_critical):
        # a snapshot requested at the flag step is not recorded: the run
        # stopped there, and the flagged state is `final`
        u0 = scaled_soliton(soliton, grid, 1.5)
        cfg = EvolveConfig(dt=1e-3, t_end=1.0, blowup_gradient_factor=10.0)
        t_flag = evolve(u0, params_critical, cfg).blowup_time
        assert t_flag is not None and t_flag > 0.01
        res = evolve(u0, params_critical,
                     replace(cfg, snapshot_times=(0.01, t_flag, 0.99)))
        assert res.blowup_time == t_flag == res.final_time
        assert [t for t, _ in res.snapshots] == [0.01]
        assert res.series.grad_sq[-1] > 10.0 * res.series.grad_sq[0]

    def test_csv_format(self, tmp_path, grid, params_critical):
        u0 = RadialField.from_function(grid, lambda r: np.exp(-r ** 2))
        cfg = EvolveConfig(dt=1e-3, t_end=0.05, record_every=10)
        res = evolve(u0, params_critical, cfg)
        path = tmp_path / "diag.csv"
        res.series.to_csv(path, metadata={"note": "test"})
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# note = test"
        assert lines[1] == "t,mass,energy,grad_sq,f,f_prime"
        assert len(lines) == 2 + len(res.series.t)
        row = lines[2].split(",")
        assert len(row) == 6
        assert float(row[1]) == pytest.approx(res.series.mass[0], rel=1e-16)

    def test_free_equation_conserves_free_energy(self, params_critical):
        from gpelab.core import RadialGrid
        g = RadialGrid(h=2e-3, rmax=12.0, dim=3)
        u0 = RadialField.from_function(g, lambda r: 0.8 * np.exp(-r ** 2))
        cfg = EvolveConfig(dt=1e-3, t_end=1.0, record_every=100,
                           free_equation=True)
        res = evolve(u0, params_critical, cfg)
        assert np.max(np.abs(res.series.energy - res.series.energy[0])) < 5e-6
        drift = np.max(np.abs(res.series.mass - res.series.mass[0]))
        assert drift < 1e-10 * res.series.mass[0]
