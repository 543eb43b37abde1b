"""T-periodic fluctuation orbit and its cycle phases.

At zero drive the fluctuation plane (G, Pi) has the fixed point (1/2, 0);
under a periodic drive it continues to a unique T-periodic orbit.  The
Gaussian of covariance (hbar/2) S, with S the M-invariant form of the
monodromy, returns to itself after one period, so the orbit is read off
S(t) = M(t) S M(t)^T as G = S11/2, Pi = S12/(2 S11): no root finding.
M(t) comes from the sampler of the monodromy's period pass, in which a
sample time is one partial Gauss step from the start of the step that
covers it, so the number of samples changes neither the steps nor rho, S
and K.

The geometric phase of the corresponding cyclic squeezed state is the
signed area the orbit encloses in the (Pi, G) plane,

    lambda_G = -int_0^T (dPi/dt) G dt = int_0^T Pi (dG/dt) dt,

and the dynamical phase is -int_0^T H_fl dt.  Since H_fl = tr(H S(t))/4,
the latter is -tr(K S)/4 with K = int_0^T M^T H M dt, and the two phases
sum to -rho/2.  Both are independent of hbar because the centroid stays
at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monodromy import Monodromy, compute_monodromy, fluctuation_point
from .params import ParameterSchedule

DEFAULT_SAMPLES = 1024


@dataclass
class PeriodicOrbit:
    """T-periodic fluctuation orbit with its cycle phases and the period
    pass it was derived from."""

    t: np.ndarray
    G: np.ndarray
    Pi: np.ndarray
    G0: float
    Pi0: float
    residual: float          # max |(G, Pi)(T) - (G0, Pi0)|
    lambda_G_cycle: float
    lambda_D_cycle: float
    monodromy: Monodromy


def cycle_phases(mono: Monodromy):
    """(lambda_G, lambda_D) of the periodic orbit from the period pass."""
    lam_D = -0.25 * mono.tr_KS
    return -0.5 * mono.rho - lam_D, lam_D


def find_periodic_orbit(sched: ParameterSchedule,
                        n_samples: int = DEFAULT_SAMPLES) -> PeriodicOrbit:
    """Periodic orbit sampled at n_samples + 1 uniform times of [0, T]."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    mono = compute_monodromy(sched)
    grid = np.linspace(0.0, mono.period, n_samples + 1)
    M = mono.flow.sample(mono.period, grid[1:-1], mono.W).M
    G, Pi = fluctuation_point(M @ mono.S @ np.transpose(M, (0, 2, 1)))
    residual = max(abs(G[-1] - G[0]), abs(Pi[-1] - Pi[0]))
    lam_G, lam_D = cycle_phases(mono)
    return PeriodicOrbit(
        t=grid, G=G, Pi=Pi, G0=float(G[0]), Pi0=float(Pi[0]),
        residual=float(residual), lambda_G_cycle=lam_G,
        lambda_D_cycle=lam_D, monodromy=mono)
