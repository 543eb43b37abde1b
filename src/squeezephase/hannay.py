"""Nonadiabatic Hannay angle of the driven oscillator.

Three independent routes are provided for the standard family
a = 1 + eps*cos(omega t), b = 2 - a, c = eps*sin(omega t):

* ``hannay_closed_form``:    2*pi*eps^2/(omega+2)^2.
* ``hannay_quadrature``:     the torus-averaged quadrature of the energy
  mismatch A = Hbar(Ibar) - H_cl under the explicit second-order
  action-angle transform.
* ``hannay_trajectory_estimate``: a schedule-agnostic estimator, the
  rotation number minus the torus-averaged dynamical angle advance, read
  off the period pass and usable beyond the perturbative family.

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
from dataclasses import dataclass, field

import numpy as np

from .dynamics import h_cl
from .monodromy import Monodromy, compute_monodromy
from .params import STANDARD, ParameterSchedule


@dataclass(frozen=True)
class PerturbativeModel:
    """Second-order action-angle model of the standard family."""

    epsilon: float
    omega: float

    @classmethod
    def from_schedule(cls, sched: ParameterSchedule) -> "PerturbativeModel":
        if sched.kind != STANDARD:
            raise ValueError(
                "the perturbative model applies to the standard family only")
        return cls(epsilon=sched.epsilon, omega=sched.omega)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    def schedule(self) -> ParameterSchedule:
        return ParameterSchedule.standard(self.epsilon, self.omega)


@dataclass
class HannayResult:
    """All computed angle values (radians per period) plus diagnostics."""

    theta_closed: float
    theta_quadrature: float
    theta_trajectory: float
    rho: float
    diagnostics: dict = field(default_factory=dict)


def pert_transform(phi_bar, I_bar, t, model: PerturbativeModel):
    """Old action-angle variables (phi, I) of the new ones at time t."""
    eps = model.epsilon
    s = 1.0 / (model.omega + 2.0)
    u = model.omega * t + 2.0 * np.asarray(phi_bar)
    phi = phi_bar - eps * s * np.sin(u) + 0.5 * (eps * s) ** 2 * np.sin(2.0 * u)
    I = I_bar * (1.0 + 2.0 * eps * s * np.cos(u) + 2.0 * (eps * s) ** 2)
    return phi, I


def pert_new_hamiltonian(I_bar, model: PerturbativeModel):
    """Angle-free Hamiltonian Ibar*(1 - eps^2/(omega+2)) of the new action."""
    return I_bar * (1.0 - model.epsilon ** 2 / (model.omega + 2.0))


def hannay_closed_form(model: PerturbativeModel) -> float:
    """Closed-form angle 2*pi*eps^2/(omega+2)^2, action-independent."""
    return 2.0 * math.pi * model.epsilon ** 2 / (model.omega + 2.0) ** 2


def _mismatch_rate(model, I_bar, n_t, n_phi):
    """Grid of dA/dIbar = A/Ibar over (t, phi_bar), A = Hbar - H_cl."""
    t = np.linspace(0.0, model.period, n_t + 1)
    phib = np.linspace(0.0, 2.0 * math.pi, n_phi + 1)
    tt, pp = np.meshgrid(t, phib, indexing="ij")
    phi, I = pert_transform(pp, I_bar, tt, model)
    q = np.sqrt(2.0 * I) * np.sin(phi)
    p = np.sqrt(2.0 * I) * np.cos(phi)
    a = 1.0 + model.epsilon * np.cos(model.omega * tt)
    c = model.epsilon * np.sin(model.omega * tt)
    A = pert_new_hamiltonian(I_bar, model) - h_cl(q, p, a, 2.0 - a, c)
    return A / I_bar


def _simpson_weights(n):
    # composite Simpson over n intervals (n even), n+1 nodes
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def hannay_quadrature(model: PerturbativeModel, n_t: int = 64,
                      n_phi: int = 64, I_bar: float = 1.0) -> float:
    """Torus-averaged quadrature of dA/dIbar over one period.

    Composite Simpson on both axes; the integrand is periodic and
    analytic, so the default 64 x 64 grid is already converged to
    roundoff.  dA/dIbar is evaluated analytically as
    A/Ibar: A is linear in the action for this family because the old
    action is proportional to the new one and H_cl is degree-1 homogeneous.
    The linearity is asserted numerically on the grid.  The even spurious
    quartic of the truncated transform is removed by a single Richardson
    step over eps and eps/2 (see module docstring).
    """
    if n_t < 64 or n_phi < 64:
        raise ValueError("n_t and n_phi must both be >= 64")
    n_t += n_t % 2
    n_phi += n_phi % 2

    def averaged(m):
        rate = _mismatch_rate(m, I_bar, n_t, n_phi)
        rate2 = _mismatch_rate(m, 2.0 * I_bar, n_t, n_phi)
        lin_dev = float(np.max(np.abs(rate2 - rate)))
        if lin_dev > 1e-9:
            raise AssertionError(
                f"A/Ibar varies with the action by {lin_dev:.3e}; "
                "homogeneity assumption violated")
        wt = _simpson_weights(n_t) * (m.period / n_t)
        wp = _simpson_weights(n_phi) * (2.0 * math.pi / n_phi)
        return float(wt @ rate @ wp) / (2.0 * math.pi)

    full = averaged(model)
    half = averaged(PerturbativeModel(epsilon=0.5 * model.epsilon,
                                      omega=model.omega))
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


def hannay_trajectory_estimate(sched: ParameterSchedule) -> float:
    """Schedule-agnostic Hannay angle from one period pass."""
    return trajectory_angle(compute_monodromy(sched))


def hannay_report(sched: ParameterSchedule, I_bar: float = 1.0,
                  n_t: int = 64, n_phi: int = 64) -> HannayResult:
    """All angle routes for one schedule (closed/quadrature require the
    standard family; generic schedules report only the trajectory route)."""
    mono = compute_monodromy(sched)
    if sched.kind == STANDARD:
        model = PerturbativeModel.from_schedule(sched)
        closed = hannay_closed_form(model)
        quad = hannay_quadrature(model, n_t=n_t, n_phi=n_phi, I_bar=I_bar)
    else:
        closed = float("nan")
        quad = float("nan")
    return HannayResult(
        theta_closed=closed, theta_quadrature=quad,
        theta_trajectory=trajectory_angle(mono), rho=mono.rho,
        diagnostics={"n_t": n_t, "n_phi": n_phi, "I_bar": I_bar},
    )
