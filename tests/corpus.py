"""Seeded input corpora of the randomized tests.

Each scheme is a generator over a numpy Generator of fixed seed, so two
runs of one commit draw the same inputs, whatever pytest collected.  A
fraction is drawn uniform on (-0.1, 1.1) and clipped to its range, which
puts 17-18% of the draws on an end of the range.
"""

import math

import numpy as np

from gpelab.core import ModelParams

# Admissible draws on a coarse mesh: N <= 5, b and p as inner fractions of
# their open ranges (p capped at 5 where p_max is infinite)
H_COARSE = 1e-2
INNER = (0.01, 0.99)


def admissible(dim, b_frac, p_frac):
    b = min(2.0, dim) * b_frac
    p_max = 1.0 + (4.0 - 2.0 * b) / (dim - 2) if dim >= 3 else 5.0
    return b, 1.0 + (min(p_max, 5.0) - 1.0) * p_frac


def fraction(rng, lo=0.0, hi=1.0):
    """A fraction in [lo, hi], on each end of it 8-9% of the time."""
    return float(np.clip(rng.uniform(-0.1, 1.1), lo, hi))


def bound_state_draws():
    """ModelParams with omega from just above -gamma N to 30: the trapped
    stationary problem at every admissible (N, b, p)."""
    rng = np.random.default_rng(2026)
    for _ in range(150):
        dim = int(rng.integers(1, 6))
        b, p = admissible(dim, fraction(rng, *INNER), fraction(rng, *INNER))
        omega = -dim + 0.01 + (dim + 30.0) * fraction(rng)
        yield ModelParams(dim=dim, b=b, p=p, gamma=1.0, omega=omega)


def minimizer_draws():
    """(params, q, ball_radius): a ball of radius 1 where the energy is
    unbounded below, with q inside its admissible range; otherwise no ball
    and q in (1e-3, 1e2)."""
    rng = np.random.default_rng(33)
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        b_frac, p_frac, q_frac = (fraction(rng, *INNER) for _ in range(3))
        b, p = admissible(dim, b_frac, p_frac)
        params = ModelParams(dim=dim, b=b, p=p, gamma=1.0)
        ball = 1.0 if params.criticality != "subcritical" else None
        q = q_frac / dim if ball else 10.0 ** (5.0 * q_frac - 3.0)
        yield params, q, ball


def unconstrained_draws():
    """(params, q) with p from p_c towards its cap and q in (1e-3, 1e2);
    p = p_c exactly where its fraction clips low."""
    rng = np.random.default_rng(33)
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        b_frac = fraction(rng, *INNER)
        p_frac = fraction(rng, *INNER)
        if p_frac == INNER[0]:
            p_frac = 0.0
        q_frac = fraction(rng, *INNER)
        b, p_top = admissible(dim, b_frac, 1.0)
        p_c = 1.0 + (4.0 - 2.0 * b) / dim
        params = ModelParams(dim=dim, b=b, p=p_c + (p_top - p_c) * p_frac,
                             gamma=1.0)
        yield params, 10.0 ** (5.0 * q_frac - 3.0)


def smooth_fields():
    """(amp, width, shift, phase) of amp exp(-(r - shift)^2 / (2 width^2))
    times exp(i phase)."""
    rng = np.random.default_rng(20240817)
    ranges = ((0.1, 3.0), (0.5, 2.5), (0.0, 2.0), (0.0, 2.0 * math.pi))
    for _ in range(40):
        yield tuple(lo + (hi - lo) * fraction(rng) for lo, hi in ranges)
