"""Geometric and dynamical phases of the Floquet cyclic states.

Eigenstates of the one-period evolution operator are built from torus
superpositions of squeezed states; the superposition closes into a cyclic
state exactly when the torus action is quantized, I_bar0 = n*hbar (no
Maslov-Morse correction).  Their per-period phases reduce to classical
quadratures:

    lambda_G_R = ( <int (p dq/dt - q dp/dt)/2 dt> - I_bar0 * rho ) / hbar
                 - oint G_p dPi_p
    lambda_D_R = - <int H_eff dt> / hbar

where <.> averages over the invariant torus at I_bar0, rho is the
monodromy rotation number, and the loop integral runs over the T-periodic
fluctuation orbit.  For a quadratic Hamiltonian p dq/dt - q dp/dt =
2 H_cl, and a uniform-angle mean of a quadratic form is its trace, so
both torus means are exactly (I_bar0/2) tr(K S) from the period pass;
no ensemble is integrated.  The orbit's cycle phases come from the same
pass (orbits.cycle_phases), run without orbit samples.
The headline check is
lambda_G_R = -(n + 1/2) * Theta_H against the nonadiabatic Hannay angle,
together with the quasi-energy consistency
lambda_G_R + lambda_D_R = -(n + 1/2) * rho.

floquet_reports serves any list of state numbers from one pass; the
report of a single state is floquet_reports(sched, [n])[0].
pert_floquet_phases gives the second-order closed forms on the standard
family only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hannay import _require_standard, hannay_closed_form, trajectory_angle
from .monodromy import compute_monodromy
from .orbits import cycle_phases
from .params import STANDARD, Constants, ParameterSchedule


@dataclass
class FloquetPhaseReport:
    """Per-state phases and the residuals of the headline relations."""

    n: int
    I_bar0: float
    hbar: float
    rho: float
    lambda_G_R: float
    lambda_D_R: float
    theta_H: float
    residual_45: float      # lambda_G_R + (n + 1/2) * theta_H
    residual_total: float   # lambda_G_R + lambda_D_R + (n + 1/2) * rho


def floquet_reports(sched: ParameterSchedule, ns,
                    consts: Constants = Constants()):
    """Phase reports for several state numbers, sharing the per-schedule
    period pass, the orbit's cycle phases, and the Hannay angle."""
    mono = compute_monodromy(sched)
    lam_G0, lam_D0 = cycle_phases(mono)
    if sched.kind == STANDARD:
        theta_H = hannay_closed_form(sched)
    else:
        theta_H = trajectory_angle(mono)
    half_trace = 0.5 * mono.tr_KS
    reports = []
    for n in ns:
        if n < 0:
            raise ValueError(f"state number must be non-negative, got {n}")
        # the orbit's cycle phases plus n per-quantum torus terms
        lam_G = lam_G0 + n * (half_trace - mono.rho)
        lam_D = lam_D0 - n * half_trace
        half = n + 0.5
        reports.append(FloquetPhaseReport(
            n=int(n), I_bar0=n * consts.hbar, hbar=consts.hbar, rho=mono.rho,
            lambda_G_R=lam_G, lambda_D_R=lam_D, theta_H=theta_H,
            residual_45=lam_G + half * theta_H,
            residual_total=lam_G + lam_D + half * mono.rho,
        ))
    return reports


def pert_floquet_phases(sched: ParameterSchedule, n: int):
    """Second-order closed forms of (lambda_G_R, lambda_D_R) on the
    standard family."""
    _require_standard(sched)
    if n < 0:
        raise ValueError(f"state number must be non-negative, got {n}")
    eps, om = sched.epsilon, sched.omega
    T = sched.period
    half = n + 0.5
    lam_G = -half * 2.0 * np.pi * eps ** 2 / (om + 2.0) ** 2
    lam_D = -half * (1.0 + (-2.0 / (om + 2.0)
                            + 2.0 / (om + 2.0) ** 2) * eps ** 2) * T
    return lam_G, lam_D
