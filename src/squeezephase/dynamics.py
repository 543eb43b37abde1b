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

The width has one floor, G_FLOOR: the right-hand side refuses any state at
or below it, so the steppers reject every stage that reaches it, and
integrate refuses any row it would return at or below it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError
from .params import Constants, ParameterSchedule

# The flow preserves G > 0, so a width at or below this floor signals
# integration failure: _extended_rhs raises DomainError there and integrate
# refuses any returned row there.
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
    """Integration samples, every accepted step or the requested output
    times; rows of y are (q, p, G, Pi, lG, lD)."""

    t: np.ndarray
    y: np.ndarray

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
    return action_pair(state.q, state.p, state.G, state.Pi)


def action_pair(q, p, G, Pi):
    """(I, J) of actions() for scalars or arrays of the state components."""
    _require_positive_width(G)
    I = 0.5 * (q * q + p * p)
    J = (G + 0.25 / G + 4.0 * Pi * Pi * G - 1.0) / 4.0
    return I, J


def _require_positive_width(G):
    if np.any(np.asarray(G) <= 0.0):
        raise DomainError(f"fluctuation width G must be positive, got {G}")


# ----------------------------------------------------------------------
# Right-hand sides
# ----------------------------------------------------------------------

def eom_rhs(state: ExtendedState, sched: ParameterSchedule,
            consts: Constants = Constants()) -> np.ndarray:
    """Time derivative of (q, p, G, Pi, lambda_G, lambda_D) at the state."""
    return _extended_rhs(state.t, state.as_array(), sched, consts.hbar)


def _extended_rhs(t, y, sched, hbar):
    a, b, c = sched.eval(t)
    q, p, G, Pi, _, _ = y.tolist()
    if not G > G_FLOOR:
        raise DomainError(
            f"fluctuation width G = {G} is at or below the floor {G_FLOOR}")
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

# Dormand-Prince 5(4) tableau (7 stages, first-same-as-last).  The last
# row of A holds the 5th-order weights, so the last stage state is the
# step's solution and its rhs is the next step's first stage.
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
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
_DP_ROWS = tuple(np.array(row) for row in _DP_A)
# 5th- minus 4th-order weights over all seven stages
_DP_ERR = np.append(_DP_ROWS[-1], 0.0) - np.array(_DP_B4)
# Shampine's 4th-order continuous extension of the pair: inside an accepted
# step, y(t + theta h) = y + h (theta, theta^2, theta^3, theta^4) @ _DP_DENSE
# @ K.  Row j holds the theta^(j+1) coefficient of each stage weight; the
# columns sum to the 5th-order weights, so theta = 1 is the step's solution
# (Shampine, Math. Comp. 46, 135 (1986); Hairer, Norsett & Wanner,
# Solving ODEs I, II.6).
_DP_DENSE = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423,
     69997945 / 29380423],
]).T
_POWERS = np.arange(1, 5)

_SAFETY = 0.9
_MIN_SHRINK = 0.2
_MAX_GROW = 5.0


def _check_output_times(t0, t1, output_times):
    """Output times as a list, required strictly increasing in (t0, t1)."""
    if output_times is None:
        return []
    out = [float(t) for t in output_times]
    if out and not (t0 < out[0] and out[-1] < t1 and all(
            a < b for a, b in zip(out, out[1:]))):
        raise ValueError(
            f"output times must increase strictly inside ({t0}, {t1})")
    return out


def _hmin(t0, t1):
    return 1e-14 * max(1.0, abs(t1 - t0), abs(t0), abs(t1))


def _rk45_path(rhs, t0, y0, t1, opts, output_times=None):
    """Adaptive embedded 5(4) pass from t0 to t1.

    Steps are chosen by error control alone and land on t1 only; the
    states at output_times come from the continuous extension of the step
    that covers each time (a time equal to a step's start gives that
    step's state exactly).  A DomainError from any stage, the trial
    solution's included, rejects the step and halves it.  Returns
    (times, states) of every accepted step and the (len(output_times), n)
    array of output states.
    """
    y = np.array(y0, dtype=float)
    t = float(t0)
    t1 = float(t1)
    tout = _check_output_times(t, t1, output_times)
    hmin = _hmin(t0, t1)
    ts, ys = [t], [y]
    n = y.size
    dense = np.empty((len(tout), n))
    j = 0

    h = min(1e-2 * max(1.0, abs(t1 - t0)), t1 - t)
    K = np.empty((7, n))
    K[0] = rhs(t, y)

    steps = 0
    while t < t1 - hmin:
        if steps >= opts.max_steps:
            raise IntegrationError(
                f"exceeded max_steps={opts.max_steps}", last_t=t)
        steps += 1
        h = min(h, t1 - t)
        # stages; a domain violation inside a stage rejects the step.
        # The state of the last stage is the 5th-order solution.
        try:
            for i in range(1, 7):
                y5 = y + h * (_DP_ROWS[i] @ K[:i])
                K[i] = rhs(t + _DP_C[i] * h, y5)
        except DomainError:
            h *= 0.5
            if h < hmin:
                raise IntegrationError(
                    "state left the domain below minimum step", last_t=t)
            continue
        r = (h * (_DP_ERR @ K)) / (
            opts.atol + opts.rtol * np.maximum(np.abs(y), np.abs(y5)))
        err = math.sqrt(float(r @ r) / n)
        if err > 1.0:
            h *= max(_MIN_SHRINK, _SAFETY * err ** -0.2)
            if h < hmin:
                raise IntegrationError(
                    f"cannot meet tolerance at t={t}", last_t=t)
            continue

        t_next = t1 if abs((t + h) - t1) <= hmin else t + h
        if j < len(tout) and tout[j] < t_next:
            k = bisect.bisect_left(tout, t_next, j)
            theta = (np.array(tout[j:k]) - t) / h
            dense[j:k] = y + h * ((theta[:, None] ** _POWERS)
                                  @ (_DP_DENSE @ K))
            j = k
        t = t_next
        y = y5
        # FSAL: the last stage is the rhs at (t + h, y5)
        K[0] = K[6]
        ts.append(t)
        ys.append(y)
        factor = _MAX_GROW if err == 0.0 else min(
            _MAX_GROW, _SAFETY * err ** -0.2)
        h = h * max(_MIN_SHRINK, factor)
    return np.array(ts), np.array(ys), dense


def _rk4_path(rhs, t0, y0, t1, opts, output_times=None):
    """Fixed-step classical Runge-Kutta pass, clipping steps to land on
    every output time.  A DomainError from any stage ends the pass; the
    reported last_t is the latest time whose state the rhs accepted.
    Returns (times, states) of every step and the (len(output_times), n)
    array of output states."""
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    targets = _check_output_times(t, t1, output_times) + [float(t1)]
    hmin = _hmin(t0, t1)
    ts, ys = [t], [y.copy()]
    landed_states = []
    steps = 0
    good_t = None
    for target in targets:
        while t < target - hmin:
            if steps >= opts.max_steps:
                raise IntegrationError(
                    f"exceeded max_steps={opts.max_steps}", last_t=t)
            steps += 1
            h = min(opts.step, target - t)
            try:
                k1 = rhs(t, y)
                good_t = t
                k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
                k3 = rhs(t + 0.5 * h, y + (0.5 * h) * k2)
                k4 = rhs(t + h, y + h * k3)
            except DomainError as exc:
                raise IntegrationError(
                    f"state left the domain: {exc}", last_t=good_t) from exc
            y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            landed = abs((t + h) - target) <= hmin
            t = target if landed else t + h
            y = y_new
            ts.append(t)
            ys.append(y.copy())
        t = target
        landed_states.append(y)
    dense = np.array(landed_states[:-1]).reshape(-1, y.size)
    return np.array(ts), np.array(ys), dense


def integrate_ode(rhs, t0, y0, t1, opts: IntegratorOptions,
                  output_times=None):
    """Dispatch a generic ODE pass through the configured stepper.

    Returns (times, states) of every accepted step and the states at
    output_times, which must increase strictly inside (t0, t1).
    """
    path = _rk4_path if opts.method == RK4 else _rk45_path
    return path(rhs, t0, y0, t1, opts, output_times)


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
        Times strictly increasing inside (t0, t1).  The adaptive method
        evaluates them by the continuous extension of the step covering
        each (its steps do not depend on them); rk4-fixed lands on them.

    Returns
    -------
    Trajectory
        Without output_times, every accepted step; with them, exactly the
        rows at (t0, *output_times, t1).  Phases are accumulated within
        the same pass.

    Raises IntegrationError if any returned row has its width at or below
    G_FLOOR; its last_t is then the time of the row before.
    """
    if not t1 > state0.t:
        raise ValueError(f"t1={t1} must exceed start time {state0.t}")
    hbar = consts.hbar

    def rhs(t, y):
        return _extended_rhs(t, y, sched, hbar)

    ts, ys, dense = integrate_ode(rhs, state0.t, state0.as_array(), t1, opts,
                                  output_times=output_times)
    if output_times is None:
        t_out, y_out = ts, ys
    else:
        t_out = np.array([ts[0], *output_times, ts[-1]], dtype=float)
        y_out = np.vstack([ys[:1], dense, ys[-1:]])
    # the rhs vets every stage, but not an interpolated row, nor the final
    # row of a fixed step
    low = np.flatnonzero(y_out[:, 2] <= G_FLOOR)
    if low.size:
        i = int(low[0])
        raise IntegrationError(
            f"width G = {y_out[i, 2]:.3e} at t={t_out[i]} is at or below "
            f"the floor {G_FLOOR}", last_t=float(t_out[i - 1]) if i else None)
    return Trajectory(t=t_out, y=y_out)
