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
the six components above with fixed steps, the phases in the same pass
as the state, on local Python floats through one copy of the equations
of motion, _rates, evaluating the schedule once per distinct stage time.
It is the one time stepper of the package, and the built-in check
rk4-self-convergence holds its 4th-order regime.

The width has one floor, G_FLOOR: the right-hand side refuses any state at
or below it, so rk4-fixed ends its pass at the first stage that reaches
it, and integrate refuses any row it would return at or below it.
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
# refuses any returned row there.
G_FLOOR = 1e-6

# Steps one rk4-fixed pass may take, counted before its first step: over
# 10x the ~7,400 of the longest pass of any check, test or benchmark
# workload (~27 time units at step 0.004, landing on ~510 output times).
# The adaptive stepper of the tests reads it too (longest pass 9,109
# steps, rejected ones included).
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
    """Integration samples at the start time, the output times asked for
    and the end time; rows of y are (q, p, G, Pi, lG, lD)."""

    t: np.ndarray
    y: np.ndarray

    @property
    def final(self) -> ExtendedState:
        return ExtendedState.from_array(self.y[-1], self.t[-1])


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
    a, b, c = sched.eval(state.t)
    return np.array(_rates(a, b, c, state.q, state.p, state.G, state.Pi,
                           consts.hbar))


def _rates(a, b, c, q, p, G, Pi, hbar):
    """The derivative of (q, p, G, Pi, lambda_G, lambda_D) under the
    coefficients (a, b, c), as a list: the one copy of the equations of
    motion.  Refuses a width at or below G_FLOOR."""
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

def _check_output_times(t0, t1, output_times):
    """Output times as a 1-D array, required strictly increasing in
    (t0, t1); None and any value that is not 1-D are refused."""
    out = np.asarray(output_times, dtype=float)
    if out.ndim != 1:
        raise ValueError(
            f"output times must be a 1-D sequence, got {out.ndim} dimensions")
    if out.size and not (t0 < out[0] and out[-1] < t1
                         and np.all(np.diff(out) > 0.0)):
        raise ValueError(
            f"output times must increase strictly inside ({t0}, {t1})")
    return out


def _hmin(t0, t1):
    return 1e-14 * max(1.0, abs(t1 - t0), abs(t0), abs(t1))


def _rk4_path(sched, hbar, t0, y0, t1, step, output_times):
    """Fixed-step classical Runge-Kutta pass of the extended state on six
    Python floats, clipping steps to land on every output time, a
    checked array (_check_output_times).

    Each stage calls _rates with the coefficients of its time, and the
    schedule is evaluated once per distinct stage time: the two middle
    stages share t + h/2, and the coefficients at t + h start the next
    step unless it lands within the minimum step of an output time other
    than t + h, where the next step starts.  A DomainError from
    any stage ends the pass with an IntegrationError naming t, h, the
    rhs calls and the accepted steps; its last_t is the latest time
    whose state _rates accepted.  Returns the times and rows at
    (t0, *output_times, t1); a pass that can take more than MAX_STEPS
    steps is refused before its first step."""
    q, p, G, Pi, lG, lD = (float(v) for v in y0)
    t, t1 = float(t0), float(t1)
    targets = [*output_times.tolist(), t1]
    steps = math.ceil((t1 - t) / step) + len(targets) - 1
    if steps > MAX_STEPS:
        raise IntegrationError(f"{steps} steps exceed MAX_STEPS={MAX_STEPS}")
    hmin = _hmin(t, t1)
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
                raise IntegrationError(
                    f"state left the domain: {exc} (t={t!r}, h={h:.3e}; "
                    f"{calls} rhs calls, {accepted} accepted steps)",
                    last_t=good_t) from exc
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
        t = target
        ts.append(t)
        ys.extend((q, p, G, Pi, lG, lD))
    return np.array(ts), np.array(ys).reshape(-1, 6)


def _linear_path(state0: ExtendedState, t1, sched, hbar, output_times):
    """Rows (t, q, p, G, Pi, lG, lD) in closed form from the flow matrix
    M(t) and K(t) = int_t0^t M^T H M of the Gauss period pass, at t0,
    the checked output_times (_check_output_times) and t1.

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
              output_times=()) -> Trajectory:
    """Propagate an extended state to time t1.

    Parameters
    ----------
    state0 : ExtendedState
        Initial condition; its own t is the start time.
    t1 : float
        Final time, must exceed state0.t.
    output_times : 1-D sequence of float, optional
        Times strictly increasing inside (t0, t1), none by default.  The
        linear route samples M(t) and K(t) at them by partial Gauss
        steps, and rk4-fixed lands on them.  None, a scalar or an array
        of more dimensions is refused with ValueError.

    Returns
    -------
    Trajectory
        Exactly the rows at (t0, *output_times, t1), on either route.

    Raises IntegrationError if any returned row has its width at or below
    G_FLOOR; its last_t is then the time of the row before.
    """
    if not t1 > state0.t:
        raise ValueError(f"t1={t1} must exceed start time {state0.t}")
    hbar = consts.hbar
    times = _check_output_times(state0.t, t1, output_times)

    if opts.method == LINEAR:
        t_out, y_out = _linear_path(state0, t1, sched, hbar, times)
    else:
        t_out, y_out = _rk4_path(sched, hbar, state0.t, state0.as_array(),
                                 t1, opts.step, times)
    # the rhs vets every stage, but not the final row of a fixed step, nor
    # any row of the linear route
    low = np.flatnonzero(y_out[:, 2] <= G_FLOOR)
    if low.size:
        i = int(low[0])
        raise IntegrationError(
            f"width G = {y_out[i, 2]:.3e} at t={t_out[i]} is at or below "
            f"the floor {G_FLOOR}", last_t=float(t_out[i - 1]) if i else None)
    return Trajectory(t=t_out, y=y_out)
