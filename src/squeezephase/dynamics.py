"""Equations of motion on the extended phase space (q, p, G, Pi).

A squeezed Gaussian state is parametrized by its centroid (q, p) and the
fluctuation pair (G, Pi) with width Dq^2 = hbar*G.  The effective
Hamiltonian H_eff = H_cl + hbar*H_fl generates the exact dynamics; the
centroid and fluctuation halves decouple for quadratic Hamiltonians.  The
accumulated geometric and dynamical phases obey

    d(lambda_G)/dt = (p*dq/dt - q*dp/dt)/(2*hbar) - (dPi/dt)*G
    d(lambda_D)/dt = -H_eff/hbar

integrate takes one of three routes (IntegratorOptions.method).  The
default, "linear", needs no stepping of these equations: the centroid
follows x = M x0 and the covariance form S = M S0 M^T, with M(t) the flow
matrix of the centroid system, and both phases are quadratic forms of
K(t) = int M^T H M plus the angle of the complex width; M and K come from
the Gauss period pass of monodromy.period_pass.  The flow routes,
"rk45-adaptive" and "rk4-fixed", integrate the six components above, the
phases in the same pass as the state, so that state and phase share one
error control; they are the independent witness of the linear route and
of the period pass.  The flow steppers run on Python floats: the state and
the stages of a step are lists, and numpy enters only to build the dense
output of a step that covers an output time.  integrate_ode takes a
generic numpy right-hand side and adapts it at its boundary.

The width has one floor, G_FLOOR: the right-hand side refuses any state at
or below it, so the steppers reject every stage that reaches it, and
integrate refuses any row it would return at or below it, on every route.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError
from .monodromy import fluctuation_point, period_pass
from .params import Constants, ParameterSchedule

# The flow preserves G > 0, so a width at or below this floor signals
# integration failure: _extended_rhs raises DomainError there and integrate
# refuses any returned row there.
G_FLOOR = 1e-6

# Steps one flow pass may take, rejected ones included: over 10x the
# 9,109 of the longest pass of any check, test or benchmark workload.
MAX_STEPS = 100_000

LINEAR = "linear"
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

    method is "linear" (the default: the state and the phases in closed
    form from M(t) and K(t) of the Gauss period pass, see _linear_path),
    or one of the flow routes that step the extended-state equations of
    motion: "rk45-adaptive" (embedded 5(4) pair) or "rk4-fixed".
    rtol and atol steer rk45-adaptive and step rk4-fixed; linear reads none.
    """

    method: str = LINEAR
    rtol: float = 1e-10
    atol: float = 1e-10
    step: float = 1e-3

    def __post_init__(self):
        if self.method not in (LINEAR, RK45, RK4):
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.rtol > 0.0 and self.atol > 0.0):
            raise ValueError("rtol and atol must be positive")
        if not self.step > 0.0:
            raise ValueError("step must be positive")


@dataclass
class Trajectory:
    """Integration samples: every step (an accepted step of a flow route,
    a Gauss node of the linear route) or the requested output times; rows
    of y are (q, p, G, Pi, lG, lD)."""

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
    return np.array(_extended_rhs(state.t, state.as_array(), sched,
                                  consts.hbar))


def _extended_rhs(t, y, sched, hbar):
    """The derivative of the 6-sequence y at t, as a list of floats."""
    a, b, c = sched.eval(t)
    q, p, G, Pi, _, _ = y
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
    return [qd, pd, Gd, Pid, lGd, lDd]


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
# 5th- minus 4th-order weights over all seven stages
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_A[-1] + (0.0,), _DP_B4))
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


def _stepper_error(what, t, h, calls, accepted, rejected, walls, last_t):
    """IntegrationError naming where the pass stopped and what it did."""
    return IntegrationError(
        f"{what} (t={t!r}, h={h:.3e}; {calls} rhs calls, {accepted} "
        f"accepted steps, rejected {rejected} for error and {walls} for "
        f"the domain)", last_t=last_t)


def _rk45_path(rhs, t0, y0, t1, opts, output_times=None):
    """Adaptive embedded 5(4) pass from t0 to t1 on Python floats.

    rhs(t, y) takes and returns a list of floats.  Steps are chosen by
    error control alone and land on t1 only; the states at output_times
    come from the continuous extension of the step that covers each time
    (a time equal to a step's start gives that step's state exactly).  A
    DomainError from any stage, the trial solution's included, rejects
    the step and halves it.  Returns (times, states) of every accepted
    step and the (len(output_times), n) array of output states.  A
    DomainError at the start state is reported as IntegrationError with
    last_t None, as _rk4_path reports it.
    """
    _, c2, c3, c4, c5, _, _ = _DP_C
    (_, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (a71, _, a73, a74, a75, a76)) = _DP_A
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    atol, rtol = opts.atol, opts.rtol
    y = [float(v) for v in y0]
    t = float(t0)
    t1 = float(t1)
    tout = _check_output_times(t, t1, output_times)
    hmin = _hmin(t, t1)
    # rows as packed doubles, not lists of float objects
    ts, ys = array("d", [t]), array("d", y)
    n = len(y)
    dense = np.empty((len(tout), n))
    j = 0
    calls = accepted = rejected = walls = 0

    h = min(1e-2 * max(1.0, abs(t1 - t)), t1 - t)
    try:
        calls += 1
        k1 = rhs(t, y)
    except DomainError as exc:
        raise _stepper_error(f"state left the domain: {exc}", t, h, calls,
                             0, 0, 0, None) from exc

    while t < t1 - hmin:
        if accepted + rejected + walls >= MAX_STEPS:
            raise _stepper_error(f"exceeded MAX_STEPS={MAX_STEPS}", t, h,
                                 calls, accepted, rejected, walls, t)
        h = min(h, t1 - t)
        # stages; a domain violation inside a stage rejects the step.
        # The state of the last stage, y7, is the 5th-order solution.
        try:
            calls += 1
            k2 = rhs(t + c2 * h, [
                y_ + h * (a21 * d1) for y_, d1 in zip(y, k1)])
            calls += 1
            k3 = rhs(t + c3 * h, [
                y_ + h * (a31 * d1 + a32 * d2)
                for y_, d1, d2 in zip(y, k1, k2)])
            calls += 1
            k4 = rhs(t + c4 * h, [
                y_ + h * (a41 * d1 + a42 * d2 + a43 * d3)
                for y_, d1, d2, d3 in zip(y, k1, k2, k3)])
            calls += 1
            k5 = rhs(t + c5 * h, [
                y_ + h * (a51 * d1 + a52 * d2 + a53 * d3 + a54 * d4)
                for y_, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)])
            calls += 1
            k6 = rhs(t + h, [
                y_ + h * (a61 * d1 + a62 * d2 + a63 * d3 + a64 * d4
                          + a65 * d5)
                for y_, d1, d2, d3, d4, d5 in zip(y, k1, k2, k3, k4, k5)])
            y7 = [y_ + h * (a71 * d1 + a73 * d3 + a74 * d4 + a75 * d5
                            + a76 * d6)
                  for y_, d1, d3, d4, d5, d6 in zip(y, k1, k3, k4, k5, k6)]
            calls += 1
            k7 = rhs(t + h, y7)
        except DomainError:
            walls += 1
            h *= 0.5
            if h < hmin:
                raise _stepper_error(
                    "state left the domain below minimum step", t, h, calls,
                    accepted, rejected, walls, t)
            continue
        sq = 0.0
        for y_, z, d1, d3, d4, d5, d6, d7 in zip(y, y7, k1, k3, k4, k5, k6,
                                                  k7):
            r = h * (e1 * d1 + e3 * d3 + e4 * d4 + e5 * d5 + e6 * d6
                     + e7 * d7) / (atol + rtol * max(abs(y_), abs(z)))
            sq += r * r
        err = math.sqrt(sq / n)
        if err > 1.0:
            rejected += 1
            h *= max(_MIN_SHRINK, _SAFETY * err ** -0.2)
            if h < hmin:
                raise _stepper_error("cannot meet tolerance", t, h, calls,
                                     accepted, rejected, walls, t)
            continue

        accepted += 1
        t_next = t1 if abs((t + h) - t1) <= hmin else t + h
        if j < len(tout) and tout[j] < t_next:
            k = bisect.bisect_left(tout, t_next, j)
            theta = (np.array(tout[j:k]) - t) / h
            K = np.array((k1, k2, k3, k4, k5, k6, k7))
            dense[j:k] = np.array(y) + h * ((theta[:, None] ** _POWERS)
                                            @ (_DP_DENSE @ K))
            j = k
        t = t_next
        y = y7
        # FSAL: the last stage is the rhs at (t + h, y7)
        k1 = k7
        ts.append(t)
        ys.fromlist(y)
        factor = _MAX_GROW if err == 0.0 else min(
            _MAX_GROW, _SAFETY * err ** -0.2)
        h = h * max(_MIN_SHRINK, factor)
    return np.array(ts), np.array(ys).reshape(-1, n), dense


def _rk4_path(rhs, t0, y0, t1, opts, output_times=None):
    """Fixed-step classical Runge-Kutta pass on Python floats, clipping
    steps to land on every output time.

    rhs(t, y) takes and returns a list of floats.  A DomainError from any
    stage ends the pass; the reported last_t is the latest time whose
    state the rhs accepted.  Returns (times, states) of every step and the
    (len(output_times), n) array of output states; a pass that can take
    more than MAX_STEPS steps is refused before its first step."""
    y = [float(v) for v in y0]
    t, t1 = float(t0), float(t1)
    targets = _check_output_times(t, t1, output_times) + [t1]
    steps = math.ceil((t1 - t) / opts.step) + len(targets) - 1
    if steps > MAX_STEPS:
        raise IntegrationError(f"{steps} steps exceed MAX_STEPS={MAX_STEPS}")
    hmin = _hmin(t, t1)
    # rows as packed doubles, not lists of float objects
    ts, ys = array("d", [t]), array("d", y)
    n = len(y)
    landed_states = []
    calls = accepted = 0
    good_t = None
    for target in targets:
        while t < target - hmin:
            h = min(opts.step, target - t)
            half = 0.5 * h
            try:
                calls += 1
                k1 = rhs(t, y)
                good_t = t
                calls += 1
                k2 = rhs(t + half, [y_ + half * d for y_, d in zip(y, k1)])
                calls += 1
                k3 = rhs(t + half, [y_ + half * d for y_, d in zip(y, k2)])
                calls += 1
                k4 = rhs(t + h, [y_ + h * d for y_, d in zip(y, k3)])
            except DomainError as exc:
                raise _stepper_error(f"state left the domain: {exc}", t, h,
                                     calls, accepted, 0, 0, good_t) from exc
            # the operation order of y + (h/6)(k1 + 2 k2 + 2 k3 + k4)
            sixth = h / 6.0
            y = [y_ + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                 for y_, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)]
            accepted += 1
            landed = abs((t + h) - target) <= hmin
            t = target if landed else t + h
            ts.append(t)
            ys.fromlist(y)
        t = target
        landed_states.append(y)
    dense = np.array(landed_states[:-1]).reshape(-1, n)
    return np.array(ts), np.array(ys).reshape(-1, n), dense


def integrate_ode(rhs, t0, y0, t1, opts: IntegratorOptions,
                  output_times=None):
    """Dispatch a generic ODE pass through the configured flow stepper.

    rhs(t, y) takes the state as an ndarray and returns an array-like;
    the steppers run on Python floats and adapt it at this boundary.  A
    generic right-hand side has no linear route, so opts.method must name
    rk45-adaptive or rk4-fixed.  Returns (times, states) of every
    accepted step and the states at output_times, which must increase
    strictly inside (t0, t1).
    """
    if opts.method == LINEAR:
        raise ValueError("a generic right-hand side has no linear route: "
                         f"name {RK45!r} or {RK4!r}")
    path = _rk4_path if opts.method == RK4 else _rk45_path
    return path(lambda t, y: np.asarray(rhs(t, np.array(y))).tolist(),
                t0, y0, t1, opts, output_times)


def _linear_path(state0: ExtendedState, t1, sched, hbar, output_times):
    """Rows (t, q, p, G, Pi, lG, lD) in closed form from the flow matrix
    M(t) and K(t) = int_t0^t M^T H M of the Gauss period pass.

    The covariance form of the start state, S0 = [[2G, 4G Pi],
    [4G Pi, 1/(2G) + 8G Pi^2]], has the lower-triangular factor
    W0 = [[r, 0], [2 Pi r, 1/r]], r = sqrt(2G).  With phi the angle of
    the first row of M W0, lifted from 0 at t0 (PeriodPass.sample's
    angle for the frame W0):

        (q, p) = M (q0, p0),  S = M S0 M^T,  G = S11/2,  Pi = S12/(2 S11),
        lambda_D = lambda_D0 - x0^T K x0/(2 hbar) - tr(K S0)/4,
        lambda_G = lambda_G0 + x0^T K x0/(2 hbar) + tr(K S0)/4 - phi/2.
    """
    x0 = np.array([state0.q, state0.p])
    r = math.sqrt(2.0 * state0.G)
    W0 = np.array([[r, 0.0], [2.0 * state0.Pi * r, 1.0 / r]])
    if output_times is not None:
        output_times = _check_output_times(state0.t, t1, output_times)
    flow = period_pass(sched, state0.t).sample(t1, output_times, W0)
    Z = flow.M @ W0
    G, Pi = fluctuation_point(Z @ np.transpose(Z, (0, 2, 1)))
    centroid = np.einsum("p,npq,q->n", x0, flow.K, x0) / (2.0 * hbar)
    width = 0.25 * np.einsum("npq,pq->n", flow.K, W0 @ W0.T)
    y = np.column_stack([
        flow.M @ x0, G, Pi,
        state0.lambda_G + centroid + width - 0.5 * flow.angle,
        state0.lambda_D - centroid - width])
    y[0] = state0.as_array()
    return flow.t, y


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
        Times strictly increasing inside (t0, t1).  The linear route
        samples M(t) and K(t) at them by partial Gauss steps, the
        adaptive method evaluates them by the continuous extension of the
        step covering each (neither moves its steps), and rk4-fixed lands
        on them.

    Returns
    -------
    Trajectory
        Without output_times, every step (every Gauss node of the linear
        route, every accepted step of a flow route); with them, exactly
        the rows at (t0, *output_times, t1).  The flow routes accumulate
        the phases within the same pass.

    Raises IntegrationError if any returned row has its width at or below
    G_FLOOR; its last_t is then the time of the row before.
    """
    if not t1 > state0.t:
        raise ValueError(f"t1={t1} must exceed start time {state0.t}")
    hbar = consts.hbar

    if opts.method == LINEAR:
        t_out, y_out = _linear_path(state0, t1, sched, hbar, output_times)
    else:
        rhs = _extended_rhs      # looked up per call of integrate
        path = _rk4_path if opts.method == RK4 else _rk45_path
        ts, ys, dense = path(lambda t, y: rhs(t, y, sched, hbar), state0.t,
                             state0.as_array(), t1, opts, output_times)
        if output_times is None:
            t_out, y_out = ts, ys
        else:
            t_out = np.array([ts[0], *output_times, ts[-1]], dtype=float)
            y_out = np.vstack([ys[:1], dense, ys[-1:]])
    # the rhs vets every stage, but not an interpolated row, nor the final
    # row of a fixed step, nor any row of the linear route
    low = np.flatnonzero(y_out[:, 2] <= G_FLOOR)
    if low.size:
        i = int(low[0])
        raise IntegrationError(
            f"width G = {y_out[i, 2]:.3e} at t={t_out[i]} is at or below "
            f"the floor {G_FLOOR}", last_t=float(t_out[i - 1]) if i else None)
    return Trajectory(t=t_out, y=y_out)
