"""Equations of motion on the extended phase space (q, p, G, Pi).

A squeezed Gaussian state is parametrized by its centroid (q, p) and the
fluctuation pair (G, Pi) with width Dq^2 = hbar*G.  The effective
Hamiltonian H_eff = H_cl + hbar*H_fl generates the exact dynamics; the
centroid and fluctuation halves decouple for quadratic Hamiltonians.  The
accumulated geometric and dynamical phases obey

    d(lambda_G)/dt = (p*dq/dt - q*dp/dt)/(2*hbar) - (dPi/dt)*G
    d(lambda_D)/dt = -H_eff/hbar

and ride the same integration pass as the state, so state and phase share
one error control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .params import Constants, ParameterSchedule

# Reject any accepted step that would push the width at or below this floor;
# the flow preserves G > 0, so reaching it signals integration failure.
G_FLOOR = 1e-6

RK45 = "rk45-adaptive"
RK4 = "rk4-fixed"


@dataclass
class ExtendedState:
    """Point of the extended phase space plus accumulated phases."""

    q: float
    p: float
    G: float
    Pi: float
    lambda_G: float = 0.0
    lambda_D: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        if not self.G > 0.0:
            raise ValueError(f"G must be positive, got {self.G}")

    def as_array(self) -> np.ndarray:
        return np.array([self.q, self.p, self.G, self.Pi,
                         self.lambda_G, self.lambda_D])

    @classmethod
    def from_array(cls, y, t: float) -> "ExtendedState":
        return cls(q=y[0], p=y[1], G=y[2], Pi=y[3],
                   lambda_G=y[4], lambda_D=y[5], t=t)


@dataclass(frozen=True)
class IntegratorOptions:
    """Time-integration options.

    method is "rk45-adaptive" (embedded 5(4) pair, default) or "rk4-fixed".
    rtol/atol control the adaptive method; step is the fixed-method step.
    """

    method: str = RK45
    rtol: float = 1e-10
    atol: float = 1e-10
    step: float = 1e-3
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.method not in (RK45, RK4):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == RK45 and not (self.rtol > 0.0 and self.atol > 0.0):
            raise ValueError("rtol and atol must be positive")
        if self.method == RK4 and not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


@dataclass
class Trajectory:
    """Accepted integration samples; rows of y are (q, p, G, Pi, lG, lD)."""

    t: np.ndarray
    y: np.ndarray

    @property
    def initial(self) -> ExtendedState:
        return ExtendedState.from_array(self.y[0], self.t[0])

    @property
    def final(self) -> ExtendedState:
        return ExtendedState.from_array(self.y[-1], self.t[-1])

    def state_at_index(self, i: int) -> ExtendedState:
        return ExtendedState.from_array(self.y[i], self.t[i])


# ----------------------------------------------------------------------
# Energy functions and derived quantities
# ----------------------------------------------------------------------

def h_cl(q, p, a, b, c):
    """Centroid energy (a q^2 + b p^2 + 2 c q p)/2."""
    return 0.5 * (a * q * q + b * p * p + 2.0 * c * q * p)


def h_fl(G, Pi, a, b, c):
    """Fluctuation energy (a G + b(1/(4G) + 4 Pi^2 G) + 4 c G Pi)/2."""
    _require_positive_width(G)
    return 0.5 * (a * G + b * (0.25 / G + 4.0 * Pi * Pi * G) + 4.0 * c * G * Pi)


def h_eff(q, p, G, Pi, a, b, c, hbar=1.0):
    """Total effective energy H_cl + hbar*H_fl."""
    return h_cl(q, p, a, b, c) + hbar * h_fl(G, Pi, a, b, c)


def covariance(G, Pi, hbar=1.0):
    """(Dq^2, Dp^2, cov) of the Gaussian state; det is hbar^2/4 identically."""
    _require_positive_width(G)
    dq2 = hbar * G
    dp2 = hbar * (0.25 / G + 4.0 * Pi * Pi * G)
    return dq2, dp2, 2.0 * hbar * G * Pi


def actions(state: ExtendedState):
    """Unperturbed actions (I, J) of the centroid and fluctuation motion."""
    _require_positive_width(state.G)
    I = 0.5 * (state.q ** 2 + state.p ** 2)
    G, Pi = state.G, state.Pi
    J = (G + 0.25 / G + 4.0 * Pi * Pi * G - 1.0) / 4.0
    return I, J


def _require_positive_width(G):
    if np.any(np.asarray(G) <= 0.0):
        raise ValueError(f"fluctuation width G must be positive, got {G}")


# ----------------------------------------------------------------------
# Right-hand sides
# ----------------------------------------------------------------------

def eom_rhs(state: ExtendedState, sched: ParameterSchedule,
            consts: Constants = Constants()) -> np.ndarray:
    """Time derivative of (q, p, G, Pi, lambda_G, lambda_D) at the state."""
    return _extended_rhs(state.t, state.as_array(), sched, consts.hbar)


def _extended_rhs(t, y, sched, hbar):
    a, b, c = sched.eval(t)
    q, p, G, Pi = y[0], y[1], y[2], y[3]
    _require_positive_width(G)
    qd = b * p + c * q
    pd = -(a * q + c * p)
    Gd = 4.0 * b * G * Pi + 2.0 * c * G
    Pid = -0.5 * (a - b / (4.0 * G * G) + 4.0 * b * Pi * Pi + 4.0 * c * Pi)
    hcl = 0.5 * (a * q * q + b * p * p + 2.0 * c * q * p)
    hfl = 0.5 * (a * G + b * (0.25 / G + 4.0 * Pi * Pi * G) + 4.0 * c * G * Pi)
    lGd = (p * qd - q * pd) / (2.0 * hbar) - Pid * G
    lDd = -(hcl / hbar + hfl)
    return np.array([qd, pd, Gd, Pid, lGd, lDd])


# ----------------------------------------------------------------------
# Steppers
# ----------------------------------------------------------------------

# Dormand-Prince 5(4) tableau (7 stages, first-same-as-last).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_ERR = tuple(b5 - b4 for b5, b4 in zip(
    _DP_B5,
    (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
     187 / 2100, 1 / 40),
))

_SAFETY = 0.9
_MIN_SHRINK = 0.2
_MAX_GROW = 5.0


def _merge_targets(t0, t1, output_times):
    targets = [float(t1)]
    if output_times is not None:
        for t in output_times:
            t = float(t)
            if t0 < t < t1:
                targets.append(t)
    return sorted(set(targets))


def _hmin(t0, t1):
    return 1e-14 * max(1.0, abs(t1 - t0), abs(t0), abs(t1))


def _rk45_path(rhs, t0, y0, t1, rtol, atol, guard=None, output_times=None,
               max_steps=2_000_000, record=True):
    """Adaptive embedded 5(4) pass from t0 to t1.

    Accepted steps land exactly on every requested output time.  guard, if
    given, must accept the trial state or the step is rejected and halved.
    Returns (times, states) arrays; only the endpoints when record=False.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    targets = _merge_targets(t0, t1, output_times)
    hmin = _hmin(t0, t1)
    ts, ys = [t], [y.copy()]

    h = min(1e-2 * max(1.0, abs(t1 - t0)), targets[0] - t)
    k1 = rhs(t, y)
    n_eval_shape = k1.shape
    k = [k1] + [np.empty(n_eval_shape) for _ in range(6)]

    steps = 0
    ti = 0
    while ti < len(targets):
        target = targets[ti]
        while t < target - hmin:
            if steps >= max_steps:
                raise IntegrationError(
                    f"exceeded max_steps={max_steps}", last_t=t)
            steps += 1
            h = min(h, target - t)
            # stages; a domain violation inside a stage rejects the step
            try:
                for i in range(1, 7):
                    yi = y.copy()
                    for j, aij in enumerate(_DP_A[i]):
                        if aij != 0.0:
                            yi += (h * aij) * k[j]
                    k[i] = rhs(t + _DP_C[i] * h, yi)
            except ValueError:
                h *= 0.5
                if h < hmin:
                    raise IntegrationError(
                        "state left the domain below minimum step", last_t=t)
                continue
            y5 = y.copy()
            for j, bj in enumerate(_DP_B5):
                if bj != 0.0:
                    y5 += (h * bj) * k[j]
            err_vec = np.zeros_like(y)
            for j, ej in enumerate(_DP_ERR):
                if ej != 0.0:
                    err_vec += (h * ej) * k[j]
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            err = math.sqrt(float(np.mean((err_vec / scale) ** 2)))

            if guard is not None and not guard(y5):
                h *= 0.5
                if h < hmin:
                    raise IntegrationError(
                        "step rejected by state guard below minimum step",
                        last_t=t)
                continue
            if err > 1.0:
                h *= max(_MIN_SHRINK, _SAFETY * err ** -0.2)
                if h < hmin:
                    raise IntegrationError(
                        f"cannot meet tolerance at t={t}", last_t=t)
                continue

            landed = abs((t + h) - target) <= hmin
            t = target if landed else t + h
            y = y5
            # FSAL: the last stage is the rhs at (t + h, y5), also when the
            # step lands (t + h is then within hmin of the target)
            k[0] = k[6]
            if record or landed and ti == len(targets) - 1:
                ts.append(t)
                ys.append(y.copy())
            factor = _MAX_GROW if err == 0.0 else min(
                _MAX_GROW, _SAFETY * err ** -0.2)
            h = h * max(_MIN_SHRINK, factor)
        t = target
        ti += 1

    if not record and (len(ts) < 2 or ts[-1] != t):
        ts.append(t)
        ys.append(y.copy())
    return np.array(ts), np.array(ys)


def _rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = rhs(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_path(rhs, t0, y0, t1, step, guard=None, output_times=None,
              max_steps=2_000_000, record=True):
    """Fixed-step classical Runge-Kutta pass, clipping at output times."""
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    targets = _merge_targets(t0, t1, output_times)
    hmin = _hmin(t0, t1)
    ts, ys = [t], [y.copy()]
    steps = 0
    for target in targets:
        while t < target - hmin:
            if steps >= max_steps:
                raise IntegrationError(
                    f"exceeded max_steps={max_steps}", last_t=t)
            steps += 1
            h = min(step, target - t)
            try:
                y_new = _rk4_step(rhs, t, y, h)
            except ValueError as exc:
                raise IntegrationError(
                    f"state left the domain: {exc}", last_t=t) from exc
            if guard is not None and not guard(y_new):
                raise IntegrationError(
                    "fixed-step state guard violated", last_t=t)
            landed = abs((t + h) - target) <= hmin
            t = target if landed else t + h
            y = y_new
            if record:
                ts.append(t)
                ys.append(y.copy())
        t = target
    if not record:
        ts.append(t)
        ys.append(y.copy())
    return np.array(ts), np.array(ys)


def integrate_ode(rhs, t0, y0, t1, opts: IntegratorOptions,
                  guard=None, output_times=None, record=True):
    """Dispatch a generic ODE pass through the configured stepper."""
    if opts.method == RK4:
        return _rk4_path(rhs, t0, y0, t1, opts.step, guard=guard,
                         output_times=output_times,
                         max_steps=opts.max_steps, record=record)
    return _rk45_path(rhs, t0, y0, t1, opts.rtol, opts.atol, guard=guard,
                      output_times=output_times,
                      max_steps=opts.max_steps, record=record)


def _width_guard(y):
    return y[2] > G_FLOOR


def integrate(state0: ExtendedState, t1: float, sched: ParameterSchedule,
              consts: Constants = Constants(),
              opts: IntegratorOptions = IntegratorOptions(),
              output_times=None) -> Trajectory:
    """Propagate an extended state to time t1.

    Parameters
    ----------
    state0 : ExtendedState
        Initial condition; its own t is the start time.
    t1 : float
        Final time, must exceed state0.t.
    output_times : sequence of float, optional
        Times in (t0, t1) the integrator must land on exactly; they appear
        among the returned samples.

    Returns
    -------
    Trajectory
        All accepted steps; phases are accumulated within the same pass.
    """
    if not t1 > state0.t:
        raise ValueError(f"t1={t1} must exceed start time {state0.t}")
    hbar = consts.hbar

    def rhs(t, y):
        return _extended_rhs(t, y, sched, hbar)

    ts, ys = integrate_ode(rhs, state0.t, state0.as_array(), t1, opts,
                           guard=_width_guard, output_times=output_times)
    return Trajectory(t=ts, y=ys)
