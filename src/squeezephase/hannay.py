"""Nonadiabatic Hannay angle of the driven oscillator.

Three independent routes are provided for the standard family
a = 1 + eps*cos(omega t), b = 2 - a, c = eps*sin(omega t):

* ``hannay_closed_form``:    2*pi*eps^2/(omega+2)^2.
* ``hannay_quadrature``:     the torus-averaged quadrature of the energy
  mismatch A = Hbar(Ibar) - H_cl under the explicit second-order
  action-angle transform: the plain mean over one fixed periodic grid of
  ``GRID`` nodes per axis (the trapezoid rule, which converges
  geometrically on this periodic analytic integrand).
* ``trajectory_angle``:   a schedule-agnostic estimator, the rotation
  number minus the torus-averaged dynamical angle advance, read off the
  period pass (``trajectory_angle(compute_monodromy(sched))``) and usable
  beyond the perturbative family.

The first two, and the transform they rest on, take the standard
``ParameterSchedule`` and raise ValueError for any other kind.  No route
takes a torus action or a grid: the angle does not depend on the action,
and the quadrature's grid is fixed.

The second-order transform (phi, I) in terms of (phi_bar, Ibar, t) is

    phi = phi_bar - eps*sin(u)/(omega+2) + eps^2*sin(2u)/(2(omega+2)^2)
    I   = Ibar*(1 + 2*eps*cos(u)/(omega+2) + 2*eps^2/(omega+2)^2)

with u = omega*t + 2*phi_bar.  Composing the truncated transform with the
exact H_cl leaves a spurious quartic-in-eps term in the averaged
quadrature; since the averaged value is an even function of eps (the
half-period shift t -> t + pi/omega maps eps -> -eps), one Richardson step
over eps and eps/2 removes it without ever invoking the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import h_cl
from .errors import ConvergenceError
from .monodromy import Monodromy, compute_monodromy
from .params import STANDARD, ParameterSchedule


def _require_standard(sched: ParameterSchedule) -> None:
    if sched.kind != STANDARD:
        raise ValueError(
            "the perturbative model applies to the standard family only")


@dataclass
class HannayResult:
    """All computed angle values (radians per period) and rho."""

    theta_closed: float
    theta_quadrature: float
    theta_trajectory: float
    rho: float


def pert_transform(phi_bar, I_bar, t, sched: ParameterSchedule):
    """Old action-angle variables (phi, I) of the new ones at time t."""
    _require_standard(sched)
    eps = sched.epsilon
    s = 1.0 / (sched.omega + 2.0)
    u = sched.omega * t + 2.0 * np.asarray(phi_bar)
    phi = phi_bar - eps * s * np.sin(u) + 0.5 * (eps * s) ** 2 * np.sin(2.0 * u)
    I = I_bar * (1.0 + 2.0 * eps * s * np.cos(u) + 2.0 * (eps * s) ** 2)
    return phi, I


def pert_new_hamiltonian(I_bar, sched: ParameterSchedule):
    """Angle-free Hamiltonian Ibar*(1 - eps^2/(omega+2)) of the new action."""
    _require_standard(sched)
    return I_bar * (1.0 - sched.epsilon ** 2 / (sched.omega + 2.0))


def hannay_closed_form(sched: ParameterSchedule) -> float:
    """Closed-form angle 2*pi*eps^2/(omega+2)^2, action-independent."""
    _require_standard(sched)
    return 2.0 * math.pi * sched.epsilon ** 2 / (sched.omega + 2.0) ** 2


# nodes per axis of the periodic quadrature grid; the integrand is
# periodic and analytic, so the plain mean (trapezoid rule) converges
# geometrically and 32 nodes are already at roundoff
GRID = 32


def _mismatch_rate(sched, I_bar):
    """GRID x GRID array of dA/dIbar = A/Ibar, A = Hbar - H_cl, at the
    uniform periodic nodes t = kT/GRID, phi_bar = 2 pi j/GRID."""
    t = np.arange(GRID) * (sched.period / GRID)
    phib = np.arange(GRID) * (2.0 * math.pi / GRID)
    tt, pp = np.meshgrid(t, phib, indexing="ij")
    phi, I = pert_transform(pp, I_bar, tt, sched)
    q = np.sqrt(2.0 * I) * np.sin(phi)
    p = np.sqrt(2.0 * I) * np.cos(phi)
    A = pert_new_hamiltonian(I_bar, sched) - h_cl(q, p, *sched.sample(tt))
    return A / I_bar


def hannay_quadrature(sched: ParameterSchedule) -> float:
    """Torus-averaged quadrature of dA/dIbar over one period.

    The period times the plain mean of dA/dIbar over the fixed periodic
    ``GRID`` x ``GRID`` grid of (t, phi_bar): the trapezoid rule, exact to
    roundoff on this periodic analytic integrand.  dA/dIbar is evaluated
    analytically as A/Ibar at Ibar = 1: A is linear in the action for this
    family because the old action is proportional to the new one and H_cl
    is degree-1 homogeneous.  The linearity is checked on the grid against
    Ibar = 2; a violation raises ConvergenceError.  The even spurious
    quartic of the truncated transform is removed by a single Richardson
    step over eps and eps/2 (see module docstring).
    """
    _require_standard(sched)

    def averaged(part):
        rate = _mismatch_rate(part, 1.0)
        lin_dev = float(np.max(np.abs(_mismatch_rate(part, 2.0) - rate)))
        if lin_dev > 1e-9:
            raise ConvergenceError(
                f"A/Ibar varies with the action by {lin_dev:.3e}; "
                "homogeneity assumption violated")
        return part.period * float(rate.mean())

    full = averaged(sched)
    half = averaged(ParameterSchedule.standard(0.5 * sched.epsilon,
                                               sched.omega))
    return (16.0 * half - full) / 3.0


def trajectory_angle(mono: Monodromy) -> float:
    """Rotation number minus the torus-averaged dynamical angle advance.

    The centroid energy is degree-1 homogeneous in the torus action, so the
    action derivative of the transformed Hamiltonian along a trajectory of
    torus action I is H_cl/I; its time integral averaged over the
    invariant ellipse is tr(K S)/2 for every I.  Subtracting it from rho
    isolates the geometric part of the angle advance.  The result is
    independent of hbar and, for the standard family, reproduces the
    closed form through second order.
    """
    return mono.rho - 0.5 * mono.tr_KS


def hannay_report(sched: ParameterSchedule) -> HannayResult:
    """All angle routes for one schedule (closed/quadrature require the
    standard family; generic schedules report only the trajectory route)."""
    mono = compute_monodromy(sched)
    if sched.kind == STANDARD:
        closed = hannay_closed_form(sched)
        quad = hannay_quadrature(sched)
    else:
        closed = float("nan")
        quad = float("nan")
    return HannayResult(
        theta_closed=closed, theta_quadrature=quad,
        theta_trajectory=trajectory_angle(mono), rho=mono.rho,
    )
