import numpy as np
import pytest

from gpelab import functionals
from gpelab.core import (ParameterError, RadialField, RadialGrid, mass,
                         variance)
from gpelab.functionals import (AmbiguousSignError, SetLabel, _moments,
                                action, classify, energy, energy_gradient,
                                gn_slack, h_omega_norm_sq, nehari, potential,
                                report, virial, weinstein)
from gpelab.core import grad_norm_sq
from gpelab.experiments import random_trial_field, scale_amplitude

from helpers import rel_err

# Independent adaptive-quadrature oracles for the Gaussian exp(-r^2/2)
# at N=3, b=0.5, p=2, gamma=1.
GAUSS_P = 3.430732670243877
GAUSS_E = 7.208914438499602


@pytest.fixture()
def gauss(grid):
    return RadialField.from_function(grid, lambda r: np.exp(-r ** 2 / 2))


class TestEnergyAndPotential:
    def test_zero_field(self, grid, params_critical):
        z = RadialField.zeros(grid)
        assert energy(z, params_critical) == 0.0
        assert potential(z, params_critical) == 0.0

    def test_linear_energy_is_rayleigh(self, grid, params_critical):
        # with the nonlinear coupling off, E(Phi) = (gamma N / 2) mass(Phi)
        phi = RadialField.from_function(grid, lambda r: np.pi ** -1.5
                                        * np.exp(-r ** 2 / 2))
        E = energy(phi, params_critical, coupling=0.0)
        assert rel_err(E, 1.5 * mass(phi)) < 1e-6

    def test_gaussian_against_quadrature_oracle(self, gauss, params_critical):
        # P carries the singular-cell quadrature error ~h^2.5 of this mesh;
        # E additionally carries the staggered-gradient error ~1e-7
        assert rel_err(potential(gauss, params_critical), GAUSS_P) < 2e-8
        assert rel_err(energy(gauss, params_critical), GAUSS_E) < 2e-7

    def test_potential_amplitude_scaling_exact(self, gauss, params_critical):
        lam = 1.37
        lhs = potential(scale_amplitude(gauss, lam), params_critical)
        rhs = lam ** (params_critical.p + 1) * potential(gauss, params_critical)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_grad_amplitude_scaling_exact(self, gauss):
        lam = 0.73
        assert grad_norm_sq(scale_amplitude(gauss, lam)) == pytest.approx(
            lam ** 2 * grad_norm_sq(gauss), rel=1e-13)

    def test_positive_iff_nonzero(self, grid, params_critical, rng):
        u = random_trial_field(grid, rng)
        assert potential(u, params_critical) > 0.0

    def test_energy_gradient_matches_finite_differences(self, grid,
                                                        params_critical, rng):
        u = random_trial_field(grid, rng)
        grad = energy_gradient(u, params_critical)
        for _ in range(3):
            v = random_trial_field(grid, rng)
            eps = 1e-6
            up = RadialField(grid, u.values + eps * v.values)
            um = RadialField(grid, u.values - eps * v.values)
            fd = (energy(up, params_critical) - energy(um, params_critical)) / (2 * eps)
            inner = float(np.sum(grid.weights
                                 * (grad * np.conj(v.values)).real))
            assert rel_err(inner, fd) < 1e-5


class TestMoments:
    @pytest.mark.parametrize("b, p", [(0.5, 2.0), (0.5, 2.5), (1.9, 1.15)])
    def test_real_input_matches_explicit_sums_bit_for_bit(self, grid, rng,
                                                          b, p):
        # the stationary solvers see real arrays: each moment keeps every
        # bit of one explicit inner product against the node weights (the
        # face conductances for G, plus the face at rmax).  A few nonzero
        # samples keep the rounding of single terms visible.
        u = np.zeros(grid.n)
        u[rng.choice(grid.n, 6, replace=False)] = 3.0 * rng.normal(size=6)
        w, c, du = grid.weights, grid.conductance, np.diff(u)
        G = (np.dot(du, c[1:grid.n] * du) / grid.h
             + c[grid.n] * u[-1] * u[-1] / grid.h)
        want = (float(np.dot(w, np.abs(u) ** 2)),
                float(grid.sphere * G),
                float(np.dot(w, grid.r_pow(2.0) * np.abs(u) ** 2)),
                float(np.dot(w, grid.r_pow(-b) * np.abs(u) ** (p + 1))))
        assert tuple(_moments(u, grid, b, p)) == want

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_norms_are_the_moments(self, grid, rng, kind):
        # one formula per integral: the core norms and _moments agree in
        # every bit, for the solvers' real arrays and evolve's complex ones
        u = random_trial_field(grid, rng).values.real
        if kind == "complex":
            u = u * np.exp(1j * rng.normal() * grid.r ** 2)
        field = RadialField(grid, u)
        m = _moments(u, grid, 0.5, 2.0)
        assert (mass(field), variance(field)) == (m.M, m.V)


    @pytest.mark.parametrize("b, p", [(0.5, 2.0), (0.5, 2.5), (1.9, 1.15)])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_block_moments_are_each_rows_bit_for_bit(self, grid, rng, b, p,
                                                     k):
        # the level trials are ranked from the moments of their block: one
        # product per moment, each row's moments those of the row alone;
        # on grid and on its mesh of spacing 16h
        for mesh in (grid, RadialGrid(16.0 * grid.h, grid.rmax, grid.dim)):
            block = np.array([random_trial_field(mesh, rng).values.real
                              for _ in range(k)])
            rows = _moments(block, mesh, b, p)
            assert len(rows) == k
            for row, values in zip(rows, block):
                assert row == _moments(values, mesh, b, p)
                assert all(type(x) is float for x in row)


class TestStationaryFunctionals:
    def test_bound_state_zeros(self, bound_state, params_critical):
        H = h_omega_norm_sq(bound_state.profile, params_critical)
        assert abs(nehari(bound_state.profile, params_critical)) < 1e-6 * H
        assert abs(virial(bound_state.profile, params_critical)) < 1e-6 * H

    def test_action_on_nehari_set(self, bound_state, params_critical):
        # with the nehari functional zero, S = (p-1)/(2(p+1)) P
        p = params_critical.p
        S = action(bound_state.profile, params_critical)
        P = potential(bound_state.profile, params_critical)
        assert rel_err(S, (p - 1) / (2 * (p + 1)) * P) < 1e-10

    def test_action_positive_at_minimizer(self, bound_state, params_critical):
        assert action(bound_state.profile, params_critical) > 0.0

    def test_amplitude_bump_negative_nehari(self, bound_state, params_critical):
        lam = 1.1
        lphi = scale_amplitude(bound_state.profile, lam)
        K = nehari(lphi, params_critical)
        H = h_omega_norm_sq(bound_state.profile, params_critical)
        P = potential(bound_state.profile, params_critical)
        expect = lam ** 2 * H - lam ** (params_critical.p + 1) * P
        assert K == pytest.approx(expect, rel=1e-12)
        assert K < 0.0

    def test_report_identities(self, bound_state, params_critical):
        rep = report(bound_state.profile, params_critical)
        omega = params_critical.omega
        assert rep.action == pytest.approx(rep.energy + omega / 2 * rep.mass,
                                           rel=1e-12)
        assert rep.nehari == pytest.approx(rep.h_omega_norm_sq - rep.potential,
                                           rel=1e-12, abs=1e-9)
        # recompute the nehari functional the other way:
        # K = 2S - (p-1)/(p+1) P is the same identity rearranged
        p = params_critical.p
        other = 2 * rep.action - (p - 1) / (p + 1) * rep.potential
        assert abs(other - rep.nehari) <= 1e-12 * max(abs(rep.h_omega_norm_sq), 1)

    def test_norm_equivalence(self, grid, params_critical, rng):
        # for omega > -gamma N the shifted norm controls the Sigma norm
        from gpelab.core import sigma_norm_sq
        for _ in range(10):
            u = random_trial_field(grid, rng)
            H = h_omega_norm_sq(u, params_critical)
            assert H > 0.0
            assert H >= 1e-3 * sigma_norm_sq(u)


class TestWeinstein:
    def test_requires_critical(self, gauss, params_subcritical):
        with pytest.raises(ParameterError):
            weinstein(gauss, params_subcritical)

    def test_rejects_zero(self, grid, params_critical):
        with pytest.raises(ParameterError):
            weinstein(RadialField.zeros(grid), params_critical)

    def test_amplitude_invariance(self, gauss, params_critical):
        J0 = weinstein(gauss, params_critical)
        assert weinstein(scale_amplitude(gauss, 2.7), params_critical) == \
            pytest.approx(J0, rel=1e-12)

    def test_dilation_invariance(self, gauss, params_critical):
        from gpelab.experiments import scale_mass_preserving
        J0 = weinstein(gauss, params_critical)
        J1 = weinstein(scale_mass_preserving(gauss, 1.3), params_critical)
        assert rel_err(J1, J0) < 1e-5

    def test_soliton_minimizes(self, soliton, params_critical, rng):
        # J(Q) = N/(2+N-b) ||Q||^s and no trial beats it
        s = (4 - 2 * params_critical.b) / params_critical.dim
        JQ = weinstein(soliton.profile, params_critical)
        expect = 3.0 / 4.5 * soliton.mass ** (s / 2)
        assert rel_err(JQ, expect) < 1e-5
        qgrid = soliton.profile.grid
        for _ in range(100):
            trial = random_trial_field(qgrid, rng)
            assert weinstein(trial, params_critical) >= JQ * (1 - 1e-9)


class TestSharpConstant:
    def test_soliton_slack_zero(self, soliton, params_critical):
        slack = gn_slack(soliton.profile, params_critical, soliton.mass)
        P = potential(soliton.profile, params_critical)
        assert abs(slack) < 1e-5 * P

    def test_scale_invariance_of_equality(self, soliton, params_critical):
        u = scale_amplitude(soliton.profile, 1.3)
        slack = gn_slack(u, params_critical, soliton.mass)
        assert abs(slack) < 1e-5 * potential(u, params_critical)

    def test_gaussian_strictly_positive(self, gauss, params_critical, soliton):
        assert gn_slack(gauss, params_critical, soliton.mass) > 0.0

    def test_requires_critical(self, gauss, params_subcritical, soliton):
        with pytest.raises(ParameterError):
            gn_slack(gauss, params_subcritical, soliton.mass)

    @pytest.mark.parametrize("critical_mass", [0.0, -1.0])
    def test_requires_positive_critical_mass(self, gauss, params_critical,
                                             critical_mass):
        with pytest.raises(ParameterError, match="critical_mass must be "
                                                 "positive"):
            gn_slack(gauss, params_critical, critical_mass)


class TestClassification:
    D = 15.0

    def test_amplitude_bump_is_k_minus(self, bound_state, params_critical):
        u = scale_amplitude(bound_state.profile, 1.4)
        assert action(u, params_critical) < self.D
        assert classify(u, params_critical, self.D) is SetLabel.K_MINUS

    def test_half_amplitude_is_r_plus(self, bound_state, params_critical):
        u = scale_amplitude(bound_state.profile, 0.5)
        # K(0.5 phi) = 0.25 H - 0.5^(p+1) P > 0 since H = P
        assert nehari(u, params_critical) > 0.0
        assert classify(u, params_critical, self.D) is SetLabel.R_PLUS

    def test_outside(self, bound_state, params_critical):
        assert classify(bound_state.profile, params_critical, self.D) is \
            SetLabel.OUTSIDE

    def test_needs_positive_level(self, bound_state, params_critical):
        with pytest.raises(ParameterError):
            classify(bound_state.profile, params_critical, 0.0)

    def test_ambiguous_band(self, bound_state, params_critical,
                            monkeypatch):
        # a state projected onto the nehari zero set sits inside the band
        # (d above its action so the sign test is actually reached)
        from gpelab.experiments import nehari_project
        monkeypatch.setattr(functionals, "_SIGN_BAND_REL", 1e-6)
        proj, _ = nehari_project(bound_state.profile, params_critical)
        d = 2.0 * action(proj, params_critical)
        with pytest.raises(AmbiguousSignError):
            classify(proj, params_critical, d)

    def test_zero_field_is_ambiguous(self, grid, params_critical):
        # the band is 0 there and K = 0 sits on its edge: not certified
        with pytest.raises(AmbiguousSignError):
            classify(RadialField.zeros(grid), params_critical, self.D)

    def test_r_minus_only_when_virial_uncertifiable(self, bound_state,
                                                    params_critical,
                                                    monkeypatch):
        # a cross-constrained point has certified nehari < 0 but its virial
        # value sits inside a wide certification band
        from gpelab.experiments import construct_cross_point
        pt = construct_cross_point(bound_state.profile, params_critical, 1.05)
        d = 2.0 * pt.action
        with monkeypatch.context() as wide:
            wide.setattr(functionals, "_SIGN_BAND_REL", 1e-6)
            assert classify(pt.field, params_critical,
                            d) is SetLabel.R_MINUS_ONLY
        # nudged off the constraint, the virial sign certifies again
        nudged = scale_amplitude(pt.field, 1.1)
        assert classify(nudged, params_critical, d) in (SetLabel.K_MINUS,
                                                        SetLabel.K_PLUS)

    def test_exhaustive_partition(self, grid, params_critical, rng):
        # every admissible field receives exactly one inside label
        inside = {SetLabel.K_MINUS, SetLabel.K_PLUS, SetLabel.R_PLUS}
        seen = set()
        count = 0
        for _ in range(1000):
            u = scale_amplitude(random_trial_field(grid, rng),
                                rng.uniform(0.1, 1.5))
            S = action(u, params_critical)
            label = classify(u, params_critical, self.D)
            if S >= self.D:
                assert label is SetLabel.OUTSIDE
                continue
            count += 1
            assert label in inside
            seen.add(label)
        assert count > 50
        assert len(seen) >= 2

    def test_phase_invariance(self, bound_state, params_critical, rng):
        u = scale_amplitude(bound_state.profile, 1.4)
        lab = classify(u, params_critical, self.D)
        for theta in rng.uniform(0, 2 * np.pi, size=5):
            v = RadialField(u.grid, u.values * np.exp(1j * theta))
            assert classify(v, params_critical, self.D) is lab
