"""Squeezed-state dynamics and geometric phases of the driven oscillator.

The package simulates the extended-phase-space flow (q, p, G, Pi) of the
time-periodic generalized harmonic oscillator, finds the T-periodic
fluctuation orbit, computes the nonadiabatic Hannay angle three ways, and
verifies that the Floquet cyclic states obey
lambda_G_R = -(n + 1/2) * Theta_H.
"""

from .dynamics import (ExtendedState, IntegratorOptions, Trajectory, actions,
                       covariance, eom_rhs, h_cl, h_eff, h_fl, integrate)
from .errors import (ConfigError, ConvergenceError, IntegrationError,
                     NonEllipticError)
from .floquet import (FloquetPhaseReport, floquet_reports,
                      pert_floquet_phases, relation_check)
from .hannay import (HannayResult, PerturbativeModel, hannay_closed_form,
                     hannay_quadrature, hannay_report,
                     hannay_trajectory_estimate, pert_new_hamiltonian,
                     pert_transform)
from .monodromy import (Monodromy, NormalFrame, compute_monodromy,
                        normal_form, periodic_gaussian_oracle)
from .orbits import PeriodicOrbit, find_periodic_orbit
from .params import Constants, ParameterSchedule, ellipticity_margin

__version__ = "0.1.0"

__all__ = [
    "Constants", "ParameterSchedule", "ellipticity_margin",
    "ExtendedState", "Trajectory", "IntegratorOptions", "h_cl", "h_fl",
    "h_eff", "eom_rhs", "integrate", "actions", "covariance",
    "Monodromy", "NormalFrame", "compute_monodromy", "normal_form",
    "periodic_gaussian_oracle", "PeriodicOrbit", "find_periodic_orbit",
    "PerturbativeModel", "HannayResult", "pert_transform",
    "pert_new_hamiltonian", "hannay_quadrature", "hannay_closed_form",
    "hannay_trajectory_estimate", "hannay_report",
    "FloquetPhaseReport", "relation_check", "floquet_reports",
    "pert_floquet_phases",
    "NonEllipticError", "IntegrationError", "ConvergenceError",
    "ConfigError",
    "__version__",
]
