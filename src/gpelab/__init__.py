"""Numerical laboratory for the radial inhomogeneous Gross-Pitaevskii
equation with a harmonic trap: stationary profiles, functionals, time
evolution, closed-form families and threshold/stability experiments."""

from .closedforms import (BlowupFamilyParams, ProfileInterpolant,
                          blowup_family, caustic_time,
                          discrete_oscillator_mode, lens_forward,
                          lens_inverse, minimal_mass_initial,
                          minimal_mass_solution, oscillator_mode,
                          snapshot_sampler)
from .core import (ModelParams, ParameterError, RadialField, RadialGrid,
                   default_grid, grad_norm_sq, integrate_radial, mass,
                   sigma_norm_sq, validate_params, variance)
# the time stepper itself is imported from gpelab.evolve (the function name
# matches the submodule, so re-exporting it here would shadow the module)
from .evolve import (DiagnosticSeries, EvolveConfig, EvolveResult,
                     predict_collapse_time, virial_check)
from .experiments import (CrossPoint, DichotomyResult, LevelEstimates,
                          StabilityResult, SweepResult, construct_cross_point,
                          dichotomy_run, estimate_d_n_upper, estimate_d_omega,
                          estimate_levels, nehari_project, scale_amplitude,
                          scale_dilation, scale_mass_preserving,
                          scale_potential_preserving, stability_run,
                          threshold_sweep)
from .functionals import (FunctionalReport, SetLabel, action, classify,
                          energy, gn_slack, nehari, potential, report, virial,
                          weinstein)
from .groundstate import (GroundStateResult, UniquenessReport,
                          constrained_minimizer, load_profile, save_profile,
                          solve_bound_state, solve_soliton, soliton_grid,
                          stationary_residuals, uniqueness_report)

__version__ = "0.1.0"
