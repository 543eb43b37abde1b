"""Equations of motion on the extended phase space (q, p, G, Pi).

A squeezed Gaussian state is parametrized by its centroid (q, p) and the
fluctuation pair (G, Pi) with width Dq^2 = hbar*G.  The effective
Hamiltonian H_eff = H_cl + hbar*H_fl generates the exact dynamics; the
centroid and fluctuation halves decouple for quadratic Hamiltonians.  The
accumulated geometric and dynamical phases obey

    d(lambda_G)/dt = (p*dq/dt - q*dp/dt)/(2*hbar) - (dPi/dt)*G
    d(lambda_D)/dt = -H_eff/hbar

integrate takes one of two routes (IntegratorOptions.method).  The
default, "linear", needs no stepping of these equations: the centroid
follows x = M x0 and the covariance form S = M S0 M^T, with M(t) the flow
matrix of the centroid system, and both phases are quadratic forms of
K(t) = int M^T H M plus the angle of the complex width; M and K come from
the Gauss period pass of monodromy.period_pass.  "rk4-fixed" integrates
the six components above with fixed steps.

flow is the independent witness of the linear route and of the period
pass: an adaptive embedded 5(4) pass of the six components, the phases in
the same pass as the state, so that state and phase share one error
control.  Both steppers call one copy of the equations of motion, _rates,
with the coefficients (a, b, c) of each stage, keep the six components in
local Python floats, and evaluate the schedule once per distinct stage
time.

The width has one floor, G_FLOOR: the right-hand side refuses any state at
or below it, so the steppers reject every stage that reaches it, and
integrate refuses any row it would return at or below it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError
from .monodromy import fluctuation_point, period_pass
from .params import Constants, ParameterSchedule

# The flow preserves G > 0, so a width at or below this floor signals
# integration failure: _rates raises DomainError there and integrate
# refuses any returned row there (flow returns only rows _rates accepted).
G_FLOOR = 1e-6

# Steps one flow pass may take, rejected ones included: over 10x the
# 9,109 of the longest pass of any check, test or benchmark workload.
MAX_STEPS = 100_000

LINEAR = "linear"
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
    or "rk4-fixed", which steps the extended-state equations of motion
    with steps of at most step; linear reads no step.
    """

    method: str = LINEAR
    step: float = 1e-3

    def __post_init__(self):
        if self.method not in (LINEAR, RK4):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.step > 0.0:
            raise ValueError("step must be positive")


@dataclass
class Trajectory:
    """Integration samples: every step (an accepted step of flow or
    rk4-fixed, a step time t0 + kT/N of the linear route) or the requested
    output times; rows of y are (q, p, G, Pi, lG, lD)."""

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
    rhs = _extended_rhs(sched, consts.hbar)
    return np.array(rhs(state.t, state.as_array()))


def _extended_rhs(sched, hbar):
    """rhs(t, y): the derivative of the 6-sequence y at t under sched, as
    a list of floats (_rates, as it is when rhs is made)."""
    coeffs, rates = sched.eval, _rates

    def rhs(t, y):
        a, b, c = coeffs(t)
        q, p, G, Pi, _, _ = y
        return rates(a, b, c, q, p, G, Pi, hbar)
    return rhs


def _rates(a, b, c, q, p, G, Pi, hbar):
    """The derivative of (q, p, G, Pi, lambda_G, lambda_D) under the
    coefficients (a, b, c), as a list: the equations of motion of flow
    and of rk4-fixed.  Refuses a width at or below G_FLOOR."""
    if not G > G_FLOOR:
        raise DomainError(
            f"fluctuation width G = {G} is at or below the floor {G_FLOOR}")
    # shared products, in the association written out: ((4*b)*G)*Pi; one
    # statement each, as a tuple assignment costs more than it saves
    aq = a * q
    bp = b * p
    b4 = 4.0 * b
    c4 = 4.0 * c
    c2 = 2.0 * c
    qd = bp + c * q
    pd = -(aq + c * p)
    Gd = b4 * G * Pi + c2 * G
    Pid = -0.5 * (a - b / (4.0 * G * G) + b4 * Pi * Pi + c4 * Pi)
    hcl = 0.5 * (aq * q + bp * p + c2 * q * p)
    hfl = 0.5 * (a * G + b * (0.25 / G + 4.0 * Pi * Pi * G) + c4 * G * Pi)
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

_SAFETY = 0.9
_MIN_SHRINK = 0.2
_MAX_GROW = 5.0


def _check_output_times(t0, t1, output_times):
    """Output times as a list, required strictly increasing in (t0, t1)."""
    if output_times is None:
        return []
    out = np.asarray(output_times, dtype=float)
    if out.size and not (t0 < out[0] and out[-1] < t1
                         and np.all(np.diff(out) > 0.0)):
        raise ValueError(
            f"output times must increase strictly inside ({t0}, {t1})")
    return out.tolist()


def _hmin(t0, t1):
    return 1e-14 * max(1.0, abs(t1 - t0), abs(t0), abs(t1))


def _stepper_error(what, t, h, calls, accepted, rejected, walls, last_t):
    """IntegrationError naming where the pass stopped and what it did."""
    return IntegrationError(
        f"{what} (t={t!r}, h={h:.3e}; {calls} rhs calls, {accepted} "
        f"accepted steps, rejected {rejected} for error and {walls} for "
        f"the domain)", last_t=last_t)


def flow(state0: ExtendedState, t1: float, sched: ParameterSchedule,
         consts: Constants = Constants(), tol: float = 1e-10) -> Trajectory:
    """The witness flow: an adaptive embedded 5(4) (Dormand-Prince) pass of
    the extended state from state0 (its own t is the start time) to t1,
    the phases accumulated in the same pass.

    tol is both the relative and the absolute tolerance of the RMS error
    norm.  Steps are chosen by error control alone and land on t1 only.
    The kernel steps six Python floats, each in the operation order of
    the tableau on a whole state.  Stages 2 to 6 build only (q, p, G, Pi),
    all that _rates reads, and the last two stages share one evaluation
    of the schedule at t + h.  A DomainError from any stage, the trial
    solution's included, rejects the step and halves it; at the start
    state it is an IntegrationError with last_t None, as in _rk4_path.
    A pass that meets G_FLOOR is refused: every row returned has passed
    the floor test of _rates, the start row as the first stage and each
    accepted row as the last stage of its step, which is evaluated at the
    accepted state.  Returns the times and rows of every accepted step.
    """
    if not t1 > state0.t:
        raise ValueError(f"t1={t1} must exceed start time {state0.t}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    hbar = consts.hbar
    _, c2, c3, c4, c5, _, _ = _DP_C
    (_, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (a71, _, a73, a74, a75, a76)) = _DP_A
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    q, p, G, Pi, lG, lD = (float(v) for v in state0.as_array())
    t, t1 = float(state0.t), float(t1)
    hmin = _hmin(t, t1)
    # rows as packed doubles, not lists of float objects
    ts, ys = array("d", [t]), array("d", (q, p, G, Pi, lG, lD))
    coeffs, rates = sched.eval, _rates       # looked up per pass
    calls = accepted = rejected = walls = 0

    h = min(1e-2 * max(1.0, abs(t1 - t)), t1 - t)
    try:
        calls += 1
        a, b, c = coeffs(t)
        k1 = rates(a, b, c, q, p, G, Pi, hbar)
    except DomainError as exc:
        raise _stepper_error(f"state left the domain: {exc}", t, h, calls,
                             0, 0, 0, None) from exc

    while t < t1 - hmin:
        if accepted + rejected + walls >= MAX_STEPS:
            raise _stepper_error(f"exceeded MAX_STEPS={MAX_STEPS}", t, h,
                                 calls, accepted, rejected, walls, t)
        h = min(h, t1 - t)
        q1, p1, G1, Pi1, lG1, lD1 = k1
        # stages; a domain violation inside a stage rejects the step.
        # The state of the last stage is the 5th-order solution.
        try:
            a, b, c = coeffs(t + c2 * h)
            calls += 1
            q2, p2, G2, Pi2, _, _ = rates(
                a, b, c, q + h * (a21 * q1), p + h * (a21 * p1),
                G + h * (a21 * G1), Pi + h * (a21 * Pi1), hbar)
            a, b, c = coeffs(t + c3 * h)
            calls += 1
            q3, p3, G3, Pi3, lG3, lD3 = rates(
                a, b, c, q + h * (a31 * q1 + a32 * q2),
                p + h * (a31 * p1 + a32 * p2),
                G + h * (a31 * G1 + a32 * G2),
                Pi + h * (a31 * Pi1 + a32 * Pi2), hbar)
            a, b, c = coeffs(t + c4 * h)
            calls += 1
            q4, p4, G4, Pi4, lG4, lD4 = rates(
                a, b, c, q + h * (a41 * q1 + a42 * q2 + a43 * q3),
                p + h * (a41 * p1 + a42 * p2 + a43 * p3),
                G + h * (a41 * G1 + a42 * G2 + a43 * G3),
                Pi + h * (a41 * Pi1 + a42 * Pi2 + a43 * Pi3), hbar)
            a, b, c = coeffs(t + c5 * h)
            calls += 1
            q5, p5, G5, Pi5, lG5, lD5 = rates(
                a, b, c, q + h * (a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4),
                p + h * (a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4),
                G + h * (a51 * G1 + a52 * G2 + a53 * G3 + a54 * G4),
                Pi + h * (a51 * Pi1 + a52 * Pi2 + a53 * Pi3 + a54 * Pi4),
                hbar)
            a, b, c = coeffs(t + h)
            calls += 1
            q6, p6, G6, Pi6, lG6, lD6 = rates(
                a, b, c, q + h * (a61 * q1 + a62 * q2 + a63 * q3 + a64 * q4
                                  + a65 * q5),
                p + h * (a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4
                         + a65 * p5),
                G + h * (a61 * G1 + a62 * G2 + a63 * G3 + a64 * G4
                         + a65 * G5),
                Pi + h * (a61 * Pi1 + a62 * Pi2 + a63 * Pi3 + a64 * Pi4
                          + a65 * Pi5), hbar)
            qn = q + h * (a71 * q1 + a73 * q3 + a74 * q4 + a75 * q5
                          + a76 * q6)
            pn = p + h * (a71 * p1 + a73 * p3 + a74 * p4 + a75 * p5
                          + a76 * p6)
            Gn = G + h * (a71 * G1 + a73 * G3 + a74 * G4 + a75 * G5
                          + a76 * G6)
            Pin = Pi + h * (a71 * Pi1 + a73 * Pi3 + a74 * Pi4 + a75 * Pi5
                            + a76 * Pi6)
            calls += 1
            k7 = rates(a, b, c, qn, pn, Gn, Pin, hbar)
        except DomainError:
            walls += 1
            h *= 0.5
            if h < hmin:
                raise _stepper_error(
                    "state left the domain below minimum step", t, h, calls,
                    accepted, rejected, walls, t)
            continue
        q7, p7, G7, Pi7, lG7, lD7 = k7
        lGn = lG + h * (a71 * lG1 + a73 * lG3 + a74 * lG4 + a75 * lG5
                        + a76 * lG6)
        lDn = lD + h * (a71 * lD1 + a73 * lD3 + a74 * lD4 + a75 * lD5
                        + a76 * lD6)
        # the RMS of the scaled error, summed in component order; each
        # scale is max(|y|, |y7|), the first unless the second is larger,
        # weighted as tol + tol * scale, the rounding of the reference
        y, z = abs(q), abs(qn)
        rq = h * (e1 * q1 + e3 * q3 + e4 * q4 + e5 * q5 + e6 * q6
                  + e7 * q7) / (tol + tol * (z if z > y else y))
        y, z = abs(p), abs(pn)
        rp = h * (e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6
                  + e7 * p7) / (tol + tol * (z if z > y else y))
        y, z = abs(G), abs(Gn)
        rG = h * (e1 * G1 + e3 * G3 + e4 * G4 + e5 * G5 + e6 * G6
                  + e7 * G7) / (tol + tol * (z if z > y else y))
        y, z = abs(Pi), abs(Pin)
        rPi = h * (e1 * Pi1 + e3 * Pi3 + e4 * Pi4 + e5 * Pi5 + e6 * Pi6
                   + e7 * Pi7) / (tol + tol * (z if z > y else y))
        y, z = abs(lG), abs(lGn)
        rlG = h * (e1 * lG1 + e3 * lG3 + e4 * lG4 + e5 * lG5 + e6 * lG6
                   + e7 * lG7) / (tol + tol * (z if z > y else y))
        y, z = abs(lD), abs(lDn)
        rlD = h * (e1 * lD1 + e3 * lD3 + e4 * lD4 + e5 * lD5 + e6 * lD6
                   + e7 * lD7) / (tol + tol * (z if z > y else y))
        sq = (rq * rq + rp * rp + rG * rG + rPi * rPi + rlG * rlG
              + rlD * rlD)
        err = math.sqrt(sq / 6)
        if err > 1.0:
            rejected += 1
            h *= max(_MIN_SHRINK, _SAFETY * err ** -0.2)
            if h < hmin:
                raise _stepper_error("cannot meet tolerance", t, h, calls,
                                     accepted, rejected, walls, t)
            continue

        accepted += 1
        t = t1 if abs((t + h) - t1) <= hmin else t + h
        q, p, G, Pi, lG, lD = qn, pn, Gn, Pin, lGn, lDn
        # FSAL: the last stage is the rhs at (t + h, y7)
        k1 = k7
        ts.append(t)
        ys.extend((q, p, G, Pi, lG, lD))
        factor = _MAX_GROW if err == 0.0 else min(
            _MAX_GROW, _SAFETY * err ** -0.2)
        h = h * max(_MIN_SHRINK, factor)
    return Trajectory(t=np.array(ts), y=np.array(ys).reshape(-1, 6))


def _rk4_path(sched, hbar, t0, y0, t1, step, output_times):
    """Fixed-step classical Runge-Kutta pass of the extended state on six
    Python floats, clipping steps to land on every output time.

    Each stage calls _rates with the coefficients of its time, and the
    schedule is evaluated once per distinct stage time: the two middle
    stages share t + h/2, and the coefficients at t + h start the next
    step unless it lands within the minimum step of an output time other
    than t + h, where the next step starts.  A DomainError from
    any stage ends the pass; the reported last_t is the latest time
    whose state _rates accepted.  Returns the times and rows of every
    step, or with output_times those at (t0, *output_times, t1); a pass
    that can take more than MAX_STEPS steps is refused before its first
    step."""
    q, p, G, Pi, lG, lD = (float(v) for v in y0)
    t, t1 = float(t0), float(t1)
    targets = _check_output_times(t, t1, output_times) + [t1]
    steps = math.ceil((t1 - t) / step) + len(targets) - 1
    if steps > MAX_STEPS:
        raise IntegrationError(f"{steps} steps exceed MAX_STEPS={MAX_STEPS}")
    hmin = _hmin(t, t1)
    every = output_times is None
    # rows as packed doubles, not lists of float objects
    ts, ys = array("d", [t]), array("d", (q, p, G, Pi, lG, lD))
    coeffs, rates = sched.eval, _rates       # looked up per pass
    calls = accepted = 0
    good_t = start = None
    for target in targets:
        while t < target - hmin:
            h = min(step, target - t)
            half = 0.5 * h
            try:
                if start is None:
                    start = coeffs(t)
                a, b, c = start
                calls += 1
                q1, p1, G1, Pi1, lG1, lD1 = rates(a, b, c, q, p, G, Pi, hbar)
                good_t = t
                a, b, c = coeffs(t + half)
                calls += 1
                q2, p2, G2, Pi2, lG2, lD2 = rates(
                    a, b, c, q + half * q1, p + half * p1, G + half * G1,
                    Pi + half * Pi1, hbar)
                calls += 1
                q3, p3, G3, Pi3, lG3, lD3 = rates(
                    a, b, c, q + half * q2, p + half * p2, G + half * G2,
                    Pi + half * Pi2, hbar)
                start = a, b, c = coeffs(t + h)
                calls += 1
                q4, p4, G4, Pi4, lG4, lD4 = rates(
                    a, b, c, q + h * q3, p + h * p3, G + h * G3,
                    Pi + h * Pi3, hbar)
            except DomainError as exc:
                raise _stepper_error(f"state left the domain: {exc}", t, h,
                                     calls, accepted, 0, 0, good_t) from exc
            # the operation order of y + (h/6)(k1 + 2 k2 + 2 k3 + k4)
            sixth = h / 6.0
            q = q + sixth * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
            p = p + sixth * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
            G = G + sixth * (G1 + 2.0 * G2 + 2.0 * G3 + G4)
            Pi = Pi + sixth * (Pi1 + 2.0 * Pi2 + 2.0 * Pi3 + Pi4)
            lG = lG + sixth * (lG1 + 2.0 * lG2 + 2.0 * lG3 + lG4)
            lD = lD + sixth * (lD1 + 2.0 * lD2 + 2.0 * lD3 + lD4)
            accepted += 1
            if abs((t + h) - target) <= hmin:
                # only an exact landing keeps the coefficients at t + h
                if t + h != target:
                    start = None
                t = target
            else:
                t = t + h
            if every:
                ts.append(t)
                ys.extend((q, p, G, Pi, lG, lD))
        t = target
        if not every:
            ts.append(t)
            ys.extend((q, p, G, Pi, lG, lD))
    return np.array(ts), np.array(ys).reshape(-1, 6)


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
    sample = period_pass(sched, state0.t).sample(t1, output_times, W0)
    Z = sample.M @ W0
    G, Pi = fluctuation_point(Z @ np.transpose(Z, (0, 2, 1)))
    centroid = np.einsum("p,npq,q->n", x0, sample.K, x0) / (2.0 * hbar)
    width = 0.25 * np.einsum("npq,pq->n", sample.K, W0 @ W0.T)
    y = np.column_stack([
        sample.M @ x0, G, Pi,
        state0.lambda_G + centroid + width - 0.5 * sample.angle,
        state0.lambda_D - centroid - width])
    y[0] = state0.as_array()
    return sample.t, y


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
        samples M(t) and K(t) at them by partial Gauss steps, and
        rk4-fixed lands on them.

    Returns
    -------
    Trajectory
        Without output_times, every step (the step times t0 + kT/N of the
        linear route, every step of rk4-fixed); with them, exactly the
        rows at (t0, *output_times, t1).

    Raises IntegrationError if any returned row has its width at or below
    G_FLOOR; its last_t is then the time of the row before.
    """
    if not t1 > state0.t:
        raise ValueError(f"t1={t1} must exceed start time {state0.t}")
    hbar = consts.hbar

    if opts.method == LINEAR:
        t_out, y_out = _linear_path(state0, t1, sched, hbar, output_times)
    else:
        t_out, y_out = _rk4_path(sched, hbar, state0.t, state0.as_array(),
                                 t1, opts.step, output_times)
    # the rhs vets every stage, but not the final row of a fixed step, nor
    # any row of the linear route
    low = np.flatnonzero(y_out[:, 2] <= G_FLOOR)
    if low.size:
        i = int(low[0])
        raise IntegrationError(
            f"width G = {y_out[i, 2]:.3e} at t={t_out[i]} is at or below "
            f"the floor {G_FLOOR}", last_t=float(t_out[i - 1]) if i else None)
    return Trajectory(t=t_out, y=y_out)
