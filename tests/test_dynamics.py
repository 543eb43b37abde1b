import dataclasses
import math
import re

import numpy as np
import pytest

from squeezephase import cli, dynamics
from squeezephase.dynamics import (ExtendedState, IntegratorOptions,
                                   actions, covariance, eom_rhs, h_cl, h_eff,
                                   h_fl, integrate)
from squeezephase.errors import DomainError, IntegrationError
from squeezephase.params import FOURIER, Constants, ParameterSchedule
from witness import flow, integrate_ode

TWO_PI = 2.0 * math.pi


def _route(method, state, t1, sched, tol=1e-10, step=1e-3):
    """The witness flow (its stepper named rk45-adaptive) at tol, or
    integrate's rk4-fixed route at step, from state to t1."""
    if method == "rk45-adaptive":
        return flow(state, t1, sched, tol=tol)
    return integrate(state, t1, sched,
                     opts=IntegratorOptions(method=method, step=step))


def fluct_from_action_angle(J, theta):
    """Fluctuation point of given action-angle; inverse of actions()[1]."""
    r = math.sqrt(2.0 * J * (2.0 * J + 1.0))
    G = 2.0 * J + 0.5 - r * math.cos(theta)
    Pi = 0.5 * r * math.sin(theta) / G
    return G, Pi


# ----------------------------------------------------------------------
# energies, covariance, actions
# ----------------------------------------------------------------------

def test_h_cl_values():
    assert h_cl(1, 0, 1, 1, 0) == 0.5
    assert h_cl(1, 1, 1.1, 0.9, 0) == pytest.approx(1.0, abs=1e-15)
    assert h_cl(2, 3, 1, 1, 0.5) == pytest.approx(9.5, abs=1e-15)


def test_h_fl_values():
    assert h_fl(0.5, 0, 1, 1, 0) == pytest.approx(0.5, abs=1e-15)
    assert h_fl(1.0, 0, 1, 1, 0) == pytest.approx(0.625, abs=1e-15)
    # independent arithmetic for the perturbed coefficients
    G = 0.46667
    expected = 0.5 * (1.1 * G + 0.9 * 0.25 / G)
    assert h_fl(G, 0, 1.1, 0.9, 0) == pytest.approx(expected, rel=1e-15)


def test_h_fl_rejects_non_positive_width():
    with pytest.raises(ValueError):
        h_fl(0.0, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        h_fl(-0.5, 0, 1, 1, 0)


def test_covariance_coherent_width():
    dq2, dp2, cov = covariance(0.5, 0.0, 1.0)
    assert (dq2, dp2, cov) == pytest.approx((0.5, 0.5, 0.0), abs=1e-15)
    assert dq2 * dp2 - cov ** 2 == pytest.approx(0.25, abs=1e-15)


def test_covariance_squeezed_identity():
    dq2, dp2, cov = covariance(1.0, 0.5, 1.0)
    assert (dq2, dp2, cov) == pytest.approx((1.0, 1.25, 1.0), abs=1e-15)
    assert dq2 * dp2 - cov ** 2 == pytest.approx(0.25, abs=1e-15)


def test_covariance_hbar_scaling():
    G = 0.46667
    dq2, dp2, cov = covariance(G, 0.0, 2.0)
    assert dq2 == pytest.approx(2.0 * G, rel=1e-15)
    assert dq2 * dp2 - cov ** 2 == pytest.approx(1.0, rel=1e-12)


def test_actions_fixed_point_is_zero():
    state = ExtendedState(q=0, p=0, G=0.5, Pi=0)
    assert actions(state) == pytest.approx((0.0, 0.0), abs=1e-15)


def test_actions_values():
    assert actions(ExtendedState(q=1, p=1, G=0.5, Pi=0))[0] == 1.0
    # (1 + 1/4 - 1)/4 by direct arithmetic
    assert actions(ExtendedState(q=0, p=0, G=1.0, Pi=0))[1] == \
        pytest.approx(0.0625, abs=1e-15)


@pytest.mark.parametrize("J", [0.01, 0.0625, 0.5, 2.0])
@pytest.mark.parametrize("theta", [0.0, 0.9, 2.5, 4.4])
def test_action_round_trip(J, theta):
    G, Pi = fluct_from_action_angle(J, theta)
    state = ExtendedState(q=0, p=0, G=G, Pi=Pi)
    assert actions(state)[1] == pytest.approx(J, rel=1e-12, abs=1e-13)


# ----------------------------------------------------------------------
# equations of motion
# ----------------------------------------------------------------------

def test_rhs_fixed_point_is_stationary():
    sched = ParameterSchedule.standard(0.0, 1.0)
    rhs = eom_rhs(ExtendedState(q=0, p=0, G=0.5, Pi=0), sched)
    assert np.max(np.abs(rhs[:4])) == 0.0


def test_rhs_unperturbed_oscillator():
    sched = ParameterSchedule.standard(0.0, 1.0)
    rhs = eom_rhs(ExtendedState(q=1, p=0, G=0.5, Pi=0), sched)
    assert rhs[:4] == pytest.approx([0.0, -1.0, 0.0, 0.0], abs=1e-15)


def test_rhs_against_finite_difference_of_flow():
    # one-sided second-order difference of the integrated flow
    sched = ParameterSchedule.standard(0.1, 1.0)
    state = ExtendedState(q=0, p=0, G=0.46667, Pi=0)
    rhs = eom_rhs(state, sched)
    d = 1e-4
    y1 = integrate(state, d, sched).final.as_array()
    y2 = integrate(state, 2 * d, sched).final.as_array()
    fd = (4.0 * y1 - 3.0 * state.as_array() - y2) / (2.0 * d)
    assert fd[:4] == pytest.approx(rhs[:4], abs=1e-6)
    # slope of the first-order periodic orbit at t=0 within O(eps^2)
    assert rhs[3] == pytest.approx(-0.1 / 3.0, abs=0.01)


def test_rates_equal_the_written_out_equations():
    # _rates shares the products of several terms; every rate keeps the
    # association of the equations written out in full, bit for bit
    args = np.random.default_rng(11).uniform(-2.0, 2.0, (200, 8))
    args[:, [5, 7]] = np.abs(args[:, [5, 7]]) + 0.1    # G and hbar
    for a, b, c, q, p, G, Pi, hbar in args.tolist():
        qd = b * p + c * q
        pd = -(a * q + c * p)
        Pid = -0.5 * (a - b / (4.0 * G * G) + 4.0 * b * Pi * Pi
                      + 4.0 * c * Pi)
        hcl = 0.5 * (a * q * q + b * p * p + 2.0 * c * q * p)
        hfl = 0.5 * (a * G + b * (0.25 / G + 4.0 * Pi * Pi * G)
                     + 4.0 * c * G * Pi)
        assert dynamics._rates(a, b, c, q, p, G, Pi, hbar) == [
            qd, pd, 4.0 * b * G * Pi + 2.0 * c * G, Pid,
            (p * qd - q * pd) / (2.0 * hbar) - Pid * G,
            -(hcl / hbar + hfl)]


def test_rhs_rejects_collapsed_width():
    sched = ParameterSchedule.standard(0.0, 1.0)
    with pytest.raises(ValueError):
        ExtendedState(q=0, p=0, G=-0.5, Pi=0)
    # the right-hand side refuses a width at the floor, not only below zero
    at_floor = ExtendedState(q=0, p=0, G=dynamics.G_FLOOR, Pi=0)
    with pytest.raises(DomainError, match="floor"):
        eom_rhs(at_floor, sched)


# ----------------------------------------------------------------------
# integration
# ----------------------------------------------------------------------

def test_centroid_period_return():
    sched = ParameterSchedule.standard(0.0, 1.0)
    final = flow(ExtendedState(q=1, p=0, G=0.5, Pi=0), TWO_PI, sched).final
    assert abs(final.q - 1.0) < 1e-8
    assert abs(final.p) < 1e-8


def test_fluctuation_half_period_return():
    sched = ParameterSchedule.standard(0.0, 1.0)
    final = flow(ExtendedState(q=0, p=0, G=1.0, Pi=0), math.pi, sched).final
    assert abs(final.G - 1.0) < 1e-8
    assert abs(final.Pi) < 1e-8


def test_fixed_and_adaptive_methods_agree():
    sched = ParameterSchedule.standard(0.05, 1.0)
    state = ExtendedState(q=1, p=0, G=0.5, Pi=0)
    ref = flow(state, TWO_PI, sched, tol=1e-12).final
    rk4 = integrate(state, TWO_PI, sched,
                    opts=IntegratorOptions(method="rk4-fixed",
                                           step=1e-3)).final
    assert np.max(np.abs(rk4.as_array() - ref.as_array())) < 1e-6


def test_trajectory_structure():
    sched = ParameterSchedule.standard(0.05, 1.0)
    state = ExtendedState(q=1, p=0, G=0.5, Pi=0)
    marks = [1.0, 2.5]
    traj = integrate(state, TWO_PI, sched, output_times=marks)
    assert traj.t[0] == 0.0
    assert np.all(np.diff(traj.t) > 0)
    assert np.all(traj.y[:, 2] > 0)
    for m in marks:
        assert m in traj.t
    assert traj.state_at_index(0).as_array() == pytest.approx(state.as_array())


def test_requested_times_match_untargeted_run():
    # landing exactly on interior output times must not disturb accuracy
    sched = ParameterSchedule.standard(0.05, 1.0)
    state = ExtendedState(q=1, p=0, G=0.5, Pi=0)
    rk4 = IntegratorOptions(method="rk4-fixed")
    plain = integrate(state, TWO_PI, sched, opts=rk4).final
    marked = integrate(state, TWO_PI, sched, opts=rk4,
                       output_times=np.linspace(0.3, 6.0, 23)).final
    assert np.max(np.abs(plain.as_array() - marked.as_array())) < 1e-9


def _counted_decay():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y
    return rhs, calls


def test_steps_reuse_last_stage():
    # at a tolerance that rejects no step, each accepted step costs the six
    # new stages of the 5(4) pair: its last stage is the next step's first
    # (first-same-as-last), also for the step that lands on t1
    rhs, calls = _counted_decay()
    ts, ys = integrate_ode(rhs, 0.0, np.array([1.0]), 1.0, 1e-6)
    assert ts[-1] == 1.0
    assert len(calls) == 1 + 6 * (len(ts) - 1)


@pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed"])
def test_numpy_start_time_steps_on_python_floats(method):
    # Trajectory.final hands back an np.float64 time: a pass started from
    # it must step Python floats, and give the rows of the pass from the
    # same time as a float, bit for bit
    runs = []
    for t0 in (0.0, np.float64(0.0)):
        sched = _counting(ParameterSchedule.standard(0.3, 1.3))
        runs.append((sched.evals, _route(
            method, ExtendedState(q=0.7, p=-0.3, G=0.6, Pi=0.1, t=t0), 5.0,
            sched, tol=1e-8, step=0.01)))
    (plain, traj), (from_numpy, traj_n) = runs
    assert {type(t) for t in from_numpy} == {float}
    assert from_numpy == plain
    assert np.array_equal(traj_n.t, traj.t)
    assert np.array_equal(traj_n.y, traj.y)


def test_fixed_steps_make_four_calls(rates_calls):
    # one call of the equations of motion per stage, and one evaluation of
    # the schedule per distinct stage time: a step adds its middle, which
    # two stages share, and its end, which starts the next step, also
    # after a step that lands exactly on an output time.  34 steps of 0.03
    # reach t = 1; with the marks 0.1 and 0.5 it takes 4 + 14 + 17 = 35
    opts = IntegratorOptions(method="rk4-fixed", step=0.03)
    for marks, steps in ((None, 34), ([0.1, 0.5], 35)):
        rates_calls.clear()
        sched = _counting(ParameterSchedule(
            kind=FOURIER, period=5.3, a_coeffs=((1.0, 0.0), (0.05, 0.03)),
            b_coeffs=((1.0, 0.0),), c_coeffs=((0.0, 0.0),)))
        traj = integrate(ExtendedState(q=0.7, p=-0.3, G=0.6, Pi=0.1), 1.0,
                         sched, opts=opts, output_times=marks)
        landings = len(marks or ())
        assert len(traj.t) == 1 + (steps if marks is None else landings + 1)
        assert len(rates_calls) == 4 * steps
        assert len(sched.evals) == 1 + 2 * steps
        # no time is evaluated twice
        assert len(set(sched.evals)) == len(sched.evals)
        assert set(marks or ()) <= set(sched.evals)


@dataclasses.dataclass(frozen=True)
class _CountingSchedule(ParameterSchedule):
    evals: list = dataclasses.field(default_factory=list, compare=False)

    def eval(self, t):
        self.evals.append(t)
        return super().eval(t)


def _counting(sched):
    """Copy of sched that records the time of every eval call."""
    return _CountingSchedule(**{f.name: getattr(sched, f.name)
                                for f in dataclasses.fields(sched)})


@pytest.fixture
def rates_calls(monkeypatch):
    """The arguments (a, b, c, q, p, G, Pi, hbar) of every call of the
    equations of motion, in order."""
    calls = []
    rates = dynamics._rates

    def recording(*args):
        calls.append(args)
        return rates(*args)
    monkeypatch.setattr(dynamics, "_rates", recording)
    return calls


# a = b = 1, c = 0 from (G, Pi) = (1, 0): G = cos^2 t + sin^2 t / 4 falls
# from 1 to 1/4, and crosses the wall WALL_G at WALL_T
WALL_G = 0.9
WALL_T = math.asin(math.sqrt((1.0 - WALL_G) / 0.75))
WALL_START = ExtendedState(q=0.0, p=0.0, G=1.0, Pi=0.0)
FREE = ParameterSchedule.standard(0.0, 1.0)


_COUNTERS = re.compile(r"\(t=(.+), h=\S+; (\d+) rhs calls, (\d+) accepted "
                       r"steps, rejected (\d+) for error and (\d+) for the "
                       r"domain\)$")


def _counters(err):
    """(t, rhs calls, accepted, rejected for error, rejected for the
    domain) named by a stepper's IntegrationError."""
    t, *counts = _COUNTERS.search(str(err)).groups()
    return (float(t), *map(int, counts))


@pytest.mark.parametrize("method, calls", [("rk45-adaptive", 1 + 6 * 3)])
def test_max_steps_failure_names_its_counters(method, calls, monkeypatch,
                                              rates_calls):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 3)
    rhs, seen = _counted_decay()
    with pytest.raises(IntegrationError, match="exceeded MAX_STEPS=3") as err:
        integrate_ode(rhs, 0.0, np.array([1.0]), 1.0, 1e-6)
    # and the witness flow, counting its calls of _rates
    with pytest.raises(IntegrationError,
                       match="exceeded MAX_STEPS=3") as flow_err:
        _route(method, ExtendedState(q=0.7, p=-0.3, G=0.6, Pi=0.1), 5.0,
               ParameterSchedule.standard(0.3, 1.3), tol=1e-6)
    for error, made in ((err.value, seen), (flow_err.value, rates_calls)):
        t, n_calls, accepted, rejected, walls = _counters(error)
        assert (n_calls, accepted, rejected, walls) == (calls, 3, 0, 0)
        assert len(made) == calls
        assert t == error.last_t > 0.0


def test_overlong_rk4_run_is_refused_before_its_first_step(monkeypatch,
                                                           rates_calls):
    # 100 steps of 0.01 to t = 1, and at most one more for each output
    # time: 102 steps is the bound the stepper checks (it takes 101)
    sched = _counting(ParameterSchedule.standard(0.1, 1.0))
    state = ExtendedState(q=1.0, p=0.0, G=0.5, Pi=0.0)
    opts = IntegratorOptions(method="rk4-fixed", step=0.01)
    monkeypatch.setattr(dynamics, "MAX_STEPS", 101)
    with pytest.raises(IntegrationError,
                       match=r"^102 steps exceed MAX_STEPS=101$") as err:
        integrate(state, 1.0, sched, opts=opts, output_times=[0.305, 0.5])
    assert rates_calls == [] and sched.evals == []
    assert err.value.last_t is None
    monkeypatch.setattr(dynamics, "MAX_STEPS", 102)
    traj = integrate(state, 1.0, sched, opts=opts, output_times=[0.305, 0.5])
    assert traj.t.tolist() == [0.0, 0.305, 0.5, 1.0]
    assert len(rates_calls) == 4 * 101


@pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed"])
def test_domain_failure_names_its_counters(method, monkeypatch, rates_calls):
    # the width floor raised to WALL_G is a wall the width crosses near
    # WALL_T: the adaptive stepper halves the step at the wall until it
    # falls below the minimum step, the fixed stepper stops at the first
    # stage past the wall
    monkeypatch.setattr(dynamics, "G_FLOOR", WALL_G)
    with pytest.raises(IntegrationError, match="left the domain") as err:
        _route(method, WALL_START, 1.0, FREE, step=0.01)
    t, calls, accepted, rejected, walls = _counters(err.value)
    assert calls == len(rates_calls)
    assert accepted >= 1 and 0.0 < t < WALL_T + 1e-6
    # each refused step stops at its first stage past the wall
    past = sum(1 for args in rates_calls if args[5] <= WALL_G)
    if method == "rk45-adaptive":
        assert walls == past >= 40      # from h ~ 0.01 to below 1e-14
    else:
        assert (rejected, walls, past) == (0, 0, 1)
        assert 4 * accepted < calls <= 4 * accepted + 4


def _numpy_rk4(sched, y0, t1, step, marks, hbar=1.0):
    """rk4-fixed as a numpy vector pass, landing on every mark: the rows
    at (0, *marks, t1)."""
    def f(t, y):
        return np.array(dynamics._extended_rhs(sched, hbar)(t, y))

    hmin = dynamics._hmin(0.0, t1)
    y, t, rows = np.array(y0, dtype=float), 0.0, [np.array(y0, dtype=float)]
    for target in [*marks, t1]:
        while t < target - hmin:
            h = min(step, target - t)
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
            k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
            k4 = f(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = target if abs((t + h) - target) <= hmin else t + h
        t = target
        rows.append(y)
    return np.array(rows)


@pytest.mark.parametrize("sched", [
    ParameterSchedule.standard(0.3, 1.3),
    ParameterSchedule.fourier(5.3, [(1.0, 0.0), (0.05, 0.03), (0.02, 0.0),
                                    (0.01, 0.02)],
                              [(1.0, 0.0), (-0.04, 0.0), (0.01, 0.0)],
                              [(0.0, 0.0), (0.0, 0.05), (0.0, 0.01),
                               (0.0, 0.02)])], ids=["standard", "fourier3"])
def test_fixed_steps_equal_the_numpy_vector_formula(sched):
    # the scalar kernel keeps the operation order of the vector formula,
    # so rk4-fixed is bit for bit the numpy pass
    y0 = [0.7, -0.3, 0.6, 0.1, 0.2, -0.4]
    marks = np.linspace(0.37, 7.1, 9).tolist()
    traj = integrate(ExtendedState.from_array(y0, 0.0), 7.5, sched,
                     consts=Constants(hbar=0.7),
                     opts=IntegratorOptions(method="rk4-fixed", step=0.02),
                     output_times=marks)
    want = _numpy_rk4(sched, y0, 7.5, 0.02, marks, hbar=0.7)
    assert np.array_equal(traj.y, want)


def test_inexact_landing_restarts_from_the_output_time(rates_calls):
    # the third step of 0.1 ends at 0.2 + 0.1, a rounding short of the mark
    # just past 0.3 but within the minimum step: the pass lands on the
    # mark, and the next step starts from the coefficients there, not at
    # the end of the step
    mark = 0.3000000000000001
    assert 0.2 + 0.1 < mark and mark - 0.2 > 0.1
    sched = _counting(ParameterSchedule.standard(0.3, 1.3))
    y0 = [0.7, -0.3, 0.6, 0.1, 0.2, -0.4]
    traj = integrate(ExtendedState.from_array(y0, 0.0), 1.0, sched,
                     opts=IntegratorOptions(method="rk4-fixed", step=0.1),
                     output_times=[mark])
    assert traj.t.tolist() == [0.0, mark, 1.0]
    assert len(rates_calls) == 4 * 10
    assert len(sched.evals) == 1 + 2 * 10 + 1
    assert sched.evals.count(mark) == 1 and 0.2 + 0.1 in sched.evals
    assert np.array_equal(traj.y, _numpy_rk4(sched, y0, 1.0, 0.1, [mark]))


# Dormand-Prince 5(4), Hairer, Norsett & Wanner, Solving ODEs I, II.5
_DP_TABLEAU = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0]])
_DP_NODES = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_DP_WEIGHTS = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784,
                        11 / 84])


def test_adaptive_step_equals_the_tableau():
    # one accepted step of the witness flow against the Dormand-Prince
    # tableau evaluated with numpy
    sched = ParameterSchedule.standard(0.3, 1.3)
    y0 = np.array([0.7, -0.3, 0.6, 0.1, 0.2, -0.4])
    h = 0.01

    def f(t, y):
        return np.array(dynamics._extended_rhs(sched, 1.0)(t, y))

    traj = flow(ExtendedState.from_array(y0, 0.0), h, sched, tol=1e-6)
    ts, ys = traj.t, traj.y
    assert ts.tolist() == [0.0, h]
    K = np.zeros((6, 6))
    for i in range(6):
        K[i] = f(_DP_NODES[i] * h, y0 + h * (_DP_TABLEAU[i] @ K))
    want = y0 + h * (_DP_WEIGHTS @ K)
    assert np.max(np.abs(ys[1] - want)) <= 1e-14 * np.max(np.abs(want))


def test_extended_rhs_takes_a_list_or_an_array():
    sched = ParameterSchedule.standard(0.3, 1.3)
    y = [0.7, -0.3, 0.6, 0.1, 0.2, -0.4]
    rhs = dynamics._extended_rhs(sched, 0.7)
    from_list, from_array = rhs(0.4, y), rhs(0.4, np.array(y))
    assert isinstance(from_list, list) and len(from_list) == 6
    assert from_list == from_array


def test_eom_rhs_returns_an_array():
    rhs = eom_rhs(ExtendedState(q=0.7, p=-0.3, G=0.6, Pi=0.1, t=0.4),
                  ParameterSchedule.standard(0.3, 1.3))
    assert isinstance(rhs, np.ndarray) and rhs.shape == (6,)
    assert rhs.dtype == float


def test_output_times_must_increase_inside_the_horizon(rates_calls):
    sched = _counting(ParameterSchedule.standard(0.3, 1.3))
    state = ExtendedState(q=0.7, p=-0.3, G=0.6, Pi=0.1)
    for bad in ([0.5, 0.2], [0.0, 0.5], [0.5, 1.0], [0.3, 0.3],
                [0.2, math.nan, 0.5], [math.nan]):
        # every route of integrate refuses them before its first step
        for method in ("rk4-fixed", "linear"):
            with pytest.raises(ValueError, match="output times"):
                integrate(state, 1.0, sched,
                          opts=IntegratorOptions(method=method),
                          output_times=bad)
    assert rates_calls == sched.evals == []


def test_integrator_options_are_the_method_and_the_step():
    # the adaptive stepper is the witness flow alone: no route of
    # integrate, and its tolerance is an argument of flow
    assert [f.name for f in dataclasses.fields(IntegratorOptions)] == [
        "method", "step"]
    with pytest.raises(ValueError, match="unknown method 'rk45-adaptive'"):
        IntegratorOptions(method="rk45-adaptive")


def test_flow_refuses_a_nonpositive_tolerance(rates_calls):
    # tol is both tolerances of the error norm; the witness flow and its
    # reference refuse it before the first step
    rhs, calls = _counted_decay()
    state = ExtendedState(q=0.7, p=-0.3, G=0.6, Pi=0.1)
    for tol in (0.0, -1e-10, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            flow(state, 1.0, FREE, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            integrate_ode(rhs, 0.0, np.array([1.0]), 1.0, tol)
    assert calls == rates_calls == []


def test_every_flow_row_passed_the_floor_test(monkeypatch):
    # flow has no row check: the floor raised to the orbit's lowest width
    # refuses the stages that dip below it, and every row returned is a
    # state _rates accepted, the start as the first stage and each
    # accepted row as the last stage of its step (raised into the orbit,
    # the floor refuses the pass: test_domain_failure_names_its_counters)
    rates, accepted, refused = dynamics._rates, set(), []

    def recording(a, b, c, q, p, G, Pi, hbar):
        try:
            out = rates(a, b, c, q, p, G, Pi, hbar)
        except DomainError:
            refused.append(G)
            raise
        accepted.add((q, p, G, Pi))
        return out
    monkeypatch.setattr(dynamics, "_rates", recording)
    monkeypatch.setattr(dynamics, "G_FLOOR", 0.25)
    traj = flow(WALL_START, math.pi, FREE, tol=1e-4)
    assert refused and traj.t[-1] == math.pi
    assert {tuple(row) for row in traj.y[:, :4].tolist()} <= accepted
    assert traj.y[:, 2].min() > 0.25


def test_interpolated_width_below_floor_is_reported(tmp_path, monkeypatch):
    # the rhs vets every stage; with equations of motion that have no
    # floor and the floor raised above part of the orbit, integrate must
    # still refuse the rk4-fixed rows at or below it, every step's and
    # those landed on output times
    sched = ParameterSchedule.standard(0.0, 1.0)
    state = ExtendedState(q=0, p=0, G=1.0, Pi=0.0)  # G swings 1 -> 1/4 -> 1
    floored = dynamics._rates

    def rates_without_floor(*args):
        with monkeypatch.context() as m:
            m.setattr(dynamics, "G_FLOOR", 0.0)
            return floored(*args)

    monkeypatch.setattr(dynamics, "_rates", rates_without_floor)
    monkeypatch.setattr(dynamics, "G_FLOOR", 0.3)
    _, ys = integrate_ode(dynamics._extended_rhs(sched, 1.0), 0.0,
                          state.as_array(), math.pi, 1e-10)
    # the witness flow looks _rates up per pass, so it takes the swap too,
    # and it has no row check: it returns the steps below the floor
    assert np.array_equal(flow(state, math.pi, sched).y, ys)
    assert ys[:, 2].min() < 0.3  # the swapped rhs let the steps through
    rk4 = IntegratorOptions(method="rk4-fixed", step=0.01)
    for output_times in (None, np.linspace(0.0, math.pi, 33)[1:-1]):
        with pytest.raises(IntegrationError, match="width G = .* at t=") as err:
            integrate(state, math.pi, sched, opts=rk4,
                      output_times=output_times)
        t = err.value.last_t
        assert 0.0 < t < math.pi
        assert math.cos(t) ** 2 + math.sin(t) ** 2 / 4 > 0.3
    cfg = cli.parse_config("epsilon=0.0\nmethod=rk4-fixed\nstep=0.01\n"
                           "[simulate]\ng0=1.0\n"
                           f"t1={math.pi!r}\nsamples=32\n")
    assert cli.run("simulate", cfg, out_dir=tmp_path) == 1


def test_integrate_rejects_bad_horizon():
    sched = ParameterSchedule.standard(0.0, 1.0)
    state = ExtendedState(q=1, p=0, G=0.5, Pi=0, t=1.0)
    with pytest.raises(ValueError, match="must exceed start time"):
        integrate(state, 0.5, sched)
    with pytest.raises(ValueError, match="must exceed start time"):
        flow(state, 0.5, sched)


def test_width_guard_reports_failure():
    # constant c < 0 with b = 0 gives dG/dt = 2cG: monotone width collapse
    # that must hit the positivity floor and abort with the last good time
    sched = ParameterSchedule(
        kind=FOURIER, period=1.0, a_coeffs=((1.0, 0.0),),
        b_coeffs=((0.0, 0.0),), c_coeffs=((-1.0, 0.0),))
    state = ExtendedState(q=0, p=0, G=1e-4, Pi=0.0)
    with pytest.raises(IntegrationError) as err:
        flow(state, 10.0, sched)
    assert err.value.last_t is not None
    assert 0.0 < err.value.last_t < 10.0
    # rk4-fixed meets the floor in a stage of the step that crosses it:
    # last_t is that step's start, still above it
    rk4 = IntegratorOptions(method="rk4-fixed", step=0.01)
    with pytest.raises(IntegrationError, match="floor") as err:
        integrate(state, 10.0, sched, opts=rk4)
    last_good = integrate(state, err.value.last_t, sched, opts=rk4).final
    assert last_good.G > dynamics.G_FLOOR


def test_fixed_step_final_row_at_floor_is_reported(tmp_path, rates_calls):
    # one rk4 step with b = 0 and c = 0 at the step's start and middle
    # keeps every stage at the start width, which the rhs accepts; c = -6
    # at its end takes the final row to G0 (1 - 0.5 * 6 / 3) = 0, which
    # only integrate's row check sees
    sched = ParameterSchedule(
        kind=FOURIER, period=1.0, a_coeffs=((1.0, 0.0),),
        b_coeffs=((0.0, 0.0),), c_coeffs=((-3.0, 0.0), (3.0, 3.0)))
    opts = IntegratorOptions(method="rk4-fixed", step=0.5)
    state = ExtendedState(q=0, p=0, G=0.5, Pi=0.0)
    with pytest.raises(IntegrationError, match="width G = .* at t=0.5") as err:
        integrate(state, 0.5, sched, opts=opts)
    assert err.value.last_t == 0.0
    # the pass took its four stages at the start width, all accepted
    assert [args[5] for args in rates_calls] == [0.5] * 4
    # a step further, the pass itself meets that row at the next step's
    # first stage; last_t is still the last time the rhs accepted
    with pytest.raises(IntegrationError, match="left the domain") as err:
        integrate(state, 1.0, sched, opts=opts)
    assert err.value.last_t == 0.0
    cfg = cli.parse_config("method=rk4-fixed\nstep=0.5\n"
                           "[simulate]\ng0=0.5\nt1=0.5\nsamples=1\n")
    cfg = dataclasses.replace(cfg, schedule=sched)
    assert cli.run("simulate", cfg, out_dir=tmp_path) == 1


@pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed"])
def test_start_width_at_floor_is_reported(method):
    # a start state the right-hand side refuses fails the same way under
    # either method: IntegrationError, and no time was good
    sched = ParameterSchedule.standard(0.1, 1.0)
    for G in (1e-7, dynamics.G_FLOOR):
        with pytest.raises(IntegrationError,
                           match="left the domain: .* at or below the floor"
                           ) as err:
            _route(method, ExtendedState(q=1.0, p=0.0, G=G, Pi=0.0), 1.0,
                   sched)
        assert err.value.last_t is None


@pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed"])
def test_only_domain_errors_reject_steps(method, monkeypatch):
    # a DomainError raised by the equations of motion is a state leaving
    # the domain: the stepper reports an IntegrationError at the wall;
    # any other ValueError is a bug and must propagate unchanged
    rates = dynamics._rates

    def rates_raising(exc):
        def walled(a, b, c, q, p, G, Pi, hbar):
            if G <= WALL_G:
                raise exc("past the wall")
            return rates(a, b, c, q, p, G, Pi, hbar)
        return walled

    monkeypatch.setattr(dynamics, "_rates", rates_raising(DomainError))
    with pytest.raises(IntegrationError) as err:
        _route(method, WALL_START, 1.0, FREE, step=0.01)
    assert 0.0 < err.value.last_t < WALL_T + 1e-6
    monkeypatch.setattr(dynamics, "_rates", rates_raising(ValueError))
    with pytest.raises(ValueError, match="past the wall") as err:
        _route(method, WALL_START, 1.0, FREE, step=0.01)
    assert type(err.value) is ValueError


# ----------------------------------------------------------------------
# structural invariants
# ----------------------------------------------------------------------

def test_actions_conserved_without_drive():
    sched = ParameterSchedule.standard(0.0, 1.0)
    state = ExtendedState(q=1.0, p=0.0, G=1.0, Pi=0.0)
    I0, J0 = actions(state)
    traj = flow(state, 10 * TWO_PI, sched)
    for i in range(0, len(traj.t), 40):
        I, J = actions(traj.state_at_index(i))
        assert abs(I - I0) < 1e-8
        assert abs(J - J0) < 1e-8


def test_covariance_determinant_along_flow():
    sched = ParameterSchedule.standard(0.1, 1.0)
    hbar = 2.0
    traj = flow(ExtendedState(q=0.3, p=-0.1, G=0.8, Pi=0.2), TWO_PI, sched,
                Constants(hbar=hbar))
    dq2, dp2, cov = covariance(traj.y[:, 2], traj.y[:, 3], hbar)
    assert np.max(np.abs(dq2 * dp2 - cov ** 2 - hbar ** 2 / 4)) < 1e-10


def test_fluctuation_flow_is_hbar_independent():
    sched = ParameterSchedule.standard(0.1, 1.0)
    state = ExtendedState(q=0.4, p=0.3, G=0.7, Pi=-0.1)
    finals = [flow(state, TWO_PI, sched, Constants(hbar=h)).final
              for h in (0.5, 1.0, 2.0)]
    for f in finals[1:]:
        assert abs(f.G - finals[0].G) < 1e-8
        assert abs(f.Pi - finals[0].Pi) < 1e-8


def test_rk4_fourth_order_convergence():
    sched = ParameterSchedule.standard(0.05, 1.0)
    state = ExtendedState(q=1, p=0, G=0.5, Pi=0)
    ref = flow(state, TWO_PI, sched, tol=1e-13).final
    errs = [np.max(np.abs(
        integrate(state, TWO_PI, sched,
                  opts=IntegratorOptions(method="rk4-fixed", step=h)
                  ).final.as_array() - ref.as_array()))
        for h in (8e-3, 4e-3)]
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_phase_additivity():
    sched = ParameterSchedule.standard(0.1, 1.0)
    state = ExtendedState(q=0.8, p=0.1, G=0.6, Pi=-0.05)
    mid = flow(state, 2.3, sched).final
    split = flow(mid, TWO_PI, sched).final
    whole = flow(state, TWO_PI, sched).final
    assert abs(split.lambda_G - whole.lambda_G) < 1e-9
    assert abs(split.lambda_D - whole.lambda_D) < 1e-9


def test_h_eff_combines_parts():
    assert h_eff(1, 0, 0.5, 0, 1, 1, 0, hbar=2.0) == \
        pytest.approx(0.5 + 2.0 * 0.5, abs=1e-15)
