"""Independent witnesses for quantities derived from the period pass.

The flow witness, flow, steps the nonlinear extended-state equations by
an adaptive embedded 5(4) (Dormand-Prince) pass: it carries (q, p, G, Pi)
and accumulates lambda_G and lambda_D through the right-hand side of
squeezephase.dynamics, sharing nothing with compute_monodromy.  Its
start points on the invariant ellipse come from
squeezephase.checks.ellipse_points, which the built-in checks share.

The pass witness integrates M(t) and K(t) of the period pass by the same
stepper instead of Gauss-Legendre collocation.

The stepper, rk45_lists, runs on a state held as a list of floats, on any
right-hand side; integrate_ode adapts it to numpy right-hand sides, and
flow runs it on dynamics._extended_rhs.
"""

import math
from array import array

import numpy as np

from squeezephase import dynamics
from squeezephase.dynamics import ExtendedState, Trajectory
from squeezephase.errors import DomainError
from squeezephase.monodromy import normal_frame
from squeezephase.params import Constants, ParameterSchedule

# tight enough that the witness's own error (~1e-12 in M, ~1e-11 in K over
# a slow drive's period) stays under the bounds it is held to
_PASS_TOL = 3e-13

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


def flow(state0: ExtendedState, t1, sched: ParameterSchedule,
         consts: Constants = Constants(), tol: float = 1e-10) -> Trajectory:
    """The witness flow: the adaptive 5(4) pass of the extended state
    from state0 (its own t is the start time) to t1, the phases in the
    same pass, at the relative and absolute tolerance tol.

    It calls dynamics._rates, as it is when flow is called, once per
    stage, so every row returned has passed its floor test: the start row
    as the first stage, each accepted row as the last stage of its step.
    Returns the times and rows of every accepted step.
    """
    if not t1 > state0.t:
        raise ValueError(f"t1={t1} must exceed start time {state0.t}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return Trajectory(*rk45_lists(dynamics._extended_rhs(sched, consts.hbar),
                                  state0.t, state0.as_array(), t1, tol))


def integrate_ode(rhs, t0, y0, t1, tol):
    """A generic ODE pass of the adaptive stepper at the relative and
    absolute tolerance tol, which must be positive, as in flow.

    rhs(t, y) takes the state as an ndarray and returns an array-like;
    the stepper runs on Python floats and adapts it at this boundary.
    Returns (times, states) of every accepted step.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return rk45_lists(lambda t, y: np.asarray(rhs(t, np.array(y))).tolist(),
                      t0, y0, t1, tol)


def rk45_lists(rhs, t0, y0, t1, tol):
    """Adaptive embedded 5(4) pass from t0 to t1 on a list of floats.

    rhs(t, y) takes and returns a list of floats.  Steps are chosen by
    error control alone and land on t1 only.  A DomainError from any
    stage, the trial solution's included, rejects the step and halves
    it.  Returns (times, states) of every accepted step.  A DomainError
    at the start state is reported as IntegrationError with last_t None.
    Failures raise dynamics' IntegrationError with its counters, and
    dynamics.MAX_STEPS is read at each call.
    """
    _, c2, c3, c4, c5, _, _ = _DP_C
    (_, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (a71, _, a73, a74, a75, a76)) = _DP_A
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    shrink, safety, grow = _MIN_SHRINK, _SAFETY, _MAX_GROW
    fail = dynamics._stepper_error
    y = [float(v) for v in y0]
    t = float(t0)
    t1 = float(t1)
    hmin = dynamics._hmin(t, t1)
    ts, ys = array("d", [t]), array("d", y)
    n = len(y)
    calls = accepted = rejected = walls = 0

    h = min(1e-2 * max(1.0, abs(t1 - t)), t1 - t)
    try:
        calls += 1
        k1 = rhs(t, y)
    except DomainError as exc:
        raise fail(f"state left the domain: {exc}", t, h, calls,
                   0, 0, 0, None) from exc

    while t < t1 - hmin:
        if accepted + rejected + walls >= dynamics.MAX_STEPS:
            raise fail(f"exceeded MAX_STEPS={dynamics.MAX_STEPS}", t, h,
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
                raise fail("state left the domain below minimum step", t, h,
                           calls, accepted, rejected, walls, t)
            continue
        sq = 0.0
        for y_, z, d1, d3, d4, d5, d6, d7 in zip(y, y7, k1, k3, k4, k5, k6,
                                                  k7):
            r = h * (e1 * d1 + e3 * d3 + e4 * d4 + e5 * d5 + e6 * d6
                     + e7 * d7) / (tol + tol * max(abs(y_), abs(z)))
            sq += r * r
        err = math.sqrt(sq / n)
        if err > 1.0:
            rejected += 1
            h *= max(shrink, safety * err ** -0.2)
            if h < hmin:
                raise fail("cannot meet tolerance", t, h, calls, accepted,
                           rejected, walls, t)
            continue

        accepted += 1
        t = t1 if abs((t + h) - t1) <= hmin else t + h
        y = y7
        # FSAL: the last stage is the rhs at (t + h, y7)
        k1 = k7
        ts.append(t)
        ys.fromlist(y)
        factor = grow if err == 0.0 else min(grow, safety * err ** -0.2)
        h = h * max(shrink, factor)
    return np.array(ts), np.array(ys).reshape(-1, n)


def random_fourier(rng, harmonics):
    # a seeded random Fourier schedule, elliptic by construction: a, b >= 0.8 - 0.2 and |c| <= 0.05 + 0.2,
    # so a b - c^2 >= 0.36 - 0.0625
    amp = 0.1 / harmonics

    def coeff(mean):
        return [(mean, 0.0)] + [tuple(rng.uniform(-amp, amp, 2))
                                for _ in range(harmonics)]
    return ParameterSchedule.fourier(
        rng.uniform(2.0, 8.0), coeff(rng.uniform(0.8, 1.2)),
        coeff(rng.uniform(0.8, 1.2)), coeff(rng.uniform(-0.05, 0.05)))


def period_end(sched, q, p, G, Pi, hbar=1.0):
    """Extended state after one period of the flow started at t = 0."""
    return flow(ExtendedState(q=q, p=p, G=G, Pi=Pi), sched.period, sched,
                Constants(hbar=hbar)).final


def _period_rhs(sched):
    """d/dt of (M11, M12, M21, M22, K11, K12, K22): M' = A M with
    A = J H, and K' = M^T H M."""
    def rhs(t, y):
        a, b, c = sched.eval(t)
        m11, m12, m21, m22, _, _, _ = y.tolist()
        h11, h12 = a * m11 + c * m21, a * m12 + c * m22
        h21, h22 = c * m11 + b * m21, c * m12 + b * m22
        return np.array([h21, h22, -h11, -h12, m11 * h11 + m21 * h21,
                         m11 * h12 + m21 * h22, m12 * h12 + m22 * h22])
    return rhs


def rk45_period_pass(sched):
    """(M, K, rho) over one period by the adaptive stepper.

    rho = 2 pi k + sigma with k from the normal-frame angle of one
    solution column, unwrapped over the accepted steps.
    """
    ts, ys = integrate_ode(_period_rhs(sched), 0.0,
                           np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
                           sched.period, _PASS_TOL)
    Ms = ys[:, :4].reshape(-1, 2, 2)
    W, sigma = normal_frame(Ms[-1])
    qp = (Ms @ (W @ np.array([0.0, 1.0]))) @ np.linalg.inv(W).T
    theta = np.unwrap(np.arctan2(qp[:, 0], qp[:, 1]))
    winding = round((theta[-1] - theta[0] - sigma) / (2.0 * math.pi))
    k11, k12, k22 = ys[-1, 4:]
    return (Ms[-1], np.array([[k11, k12], [k12, k22]]),
            2.0 * math.pi * winding + sigma)
