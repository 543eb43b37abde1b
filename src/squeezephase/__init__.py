"""Squeezed-state dynamics and geometric phases of the driven oscillator.

The package simulates the extended-phase-space flow (q, p, G, Pi) of the
time-periodic generalized harmonic oscillator, finds the T-periodic
fluctuation orbit, computes the nonadiabatic Hannay angle three ways, and
verifies that the Floquet cyclic states obey
lambda_G_R = -(n + 1/2) * Theta_H.
"""

from .dynamics import (ExtendedState, IntegratorOptions, Trajectory, actions,
                       covariance, eom_rhs, h_cl, h_eff, h_fl, integrate)
from .errors import (ConfigError, ConvergenceError, DomainError,
                     IntegrationError, NonEllipticError)
from .floquet import FloquetPhaseReport, floquet_reports, pert_floquet_phases
from .hannay import (HannayResult, hannay_closed_form, hannay_quadrature,
                     hannay_report, pert_new_hamiltonian, pert_transform)
from .monodromy import Monodromy, compute_monodromy, normal_frame
from .orbits import PeriodicOrbit, find_periodic_orbit
from .params import Constants, ParameterSchedule, ellipticity_margin

__version__ = "0.1.0"

__all__ = [
    "Constants", "ParameterSchedule", "ellipticity_margin",
    "ExtendedState", "Trajectory", "IntegratorOptions", "h_cl", "h_fl",
    "h_eff", "eom_rhs", "integrate", "actions", "covariance",
    "Monodromy", "compute_monodromy", "normal_frame",
    "PeriodicOrbit", "find_periodic_orbit",
    "HannayResult", "pert_transform", "pert_new_hamiltonian",
    "hannay_quadrature", "hannay_closed_form", "hannay_report",
    "FloquetPhaseReport", "floquet_reports", "pert_floquet_phases",
    "NonEllipticError", "IntegrationError", "ConvergenceError",
    "ConfigError", "DomainError",
    "__version__",
]
