import dataclasses
import math

import numpy as np
import pytest

from squeezephase import cli, dynamics
from squeezephase.dynamics import (ExtendedState, IntegratorOptions,
                                   actions, covariance, eom_rhs, h_cl, h_eff,
                                   h_fl, integrate, integrate_ode)
from squeezephase.errors import DomainError, IntegrationError
from squeezephase.params import FOURIER, Constants, ParameterSchedule

TWO_PI = 2.0 * math.pi


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
    opts = IntegratorOptions(rtol=1e-12, atol=1e-12)
    d = 1e-4
    y1 = integrate(state, d, sched, opts=opts).final.as_array()
    y2 = integrate(state, 2 * d, sched, opts=opts).final.as_array()
    fd = (4.0 * y1 - 3.0 * state.as_array() - y2) / (2.0 * d)
    assert fd[:4] == pytest.approx(rhs[:4], abs=1e-6)
    # slope of the first-order periodic orbit at t=0 within O(eps^2)
    assert rhs[3] == pytest.approx(-0.1 / 3.0, abs=0.01)


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
    final = integrate(ExtendedState(q=1, p=0, G=0.5, Pi=0),
                      TWO_PI, sched).final
    assert abs(final.q - 1.0) < 1e-8
    assert abs(final.p) < 1e-8


def test_fluctuation_half_period_return():
    sched = ParameterSchedule.standard(0.0, 1.0)
    final = integrate(ExtendedState(q=0, p=0, G=1.0, Pi=0),
                      math.pi, sched).final
    assert abs(final.G - 1.0) < 1e-8
    assert abs(final.Pi) < 1e-8


def test_fixed_and_adaptive_methods_agree():
    sched = ParameterSchedule.standard(0.05, 1.0)
    state = ExtendedState(q=1, p=0, G=0.5, Pi=0)
    ref = integrate(state, TWO_PI, sched,
                    opts=IntegratorOptions(rtol=1e-12, atol=1e-12)).final
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
    plain = integrate(state, TWO_PI, sched).final
    marked = integrate(state, TWO_PI, sched,
                       output_times=np.linspace(0.3, 6.0, 23)).final
    assert np.max(np.abs(plain.as_array() - marked.as_array())) < 1e-9


def _counted_decay():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y
    return rhs, calls


def test_output_times_do_not_move_steps():
    # the adaptive stepper chooses its steps by error control alone: with
    # and without output times it makes the same rhs calls at the same
    # times and accepts the same steps, bit for bit
    grid = np.linspace(0.0, 1.0, 101)
    opts = IntegratorOptions(rtol=1e-6, atol=1e-6)
    rhs, plain_calls = _counted_decay()
    ts, ys, none = integrate_ode(rhs, 0.0, np.array([1.0]), 1.0, opts)
    rhs, dense_calls = _counted_decay()
    ts_d, ys_d, dense = integrate_ode(rhs, 0.0, np.array([1.0]), 1.0, opts,
                                      output_times=grid[1:-1])
    assert dense_calls == plain_calls
    assert np.array_equal(ts_d, ts) and np.array_equal(ys_d, ys)
    assert none.shape == (0, 1) and dense.shape == (99, 1)
    # fewer steps than samples: the steps were not clipped to the grid
    assert len(ts) - 1 < 99


def test_steps_reuse_last_stage():
    # at a tolerance that rejects no step, each accepted step costs the six
    # new stages of the 5(4) pair: its last stage is the next step's first
    # (first-same-as-last), also for the step that lands on t1
    rhs, calls = _counted_decay()
    ts, ys, _ = integrate_ode(rhs, 0.0, np.array([1.0]), 1.0,
                              IntegratorOptions(rtol=1e-6, atol=1e-6),
                              output_times=np.linspace(0.0, 1.0, 101)[1:-1])
    assert ts[-1] == 1.0
    assert len(calls) == 1 + 6 * (len(ts) - 1)


def test_dense_output_matches_exact_decay():
    # the continuous extension is 4th-order accurate inside each step
    grid = np.linspace(0.0, 1.0, 101)
    rhs, _ = _counted_decay()
    ts, ys, dense = integrate_ode(rhs, 0.0, np.array([1.0]), 1.0,
                                  IntegratorOptions(rtol=1e-10, atol=1e-10),
                                  output_times=grid[1:-1])
    assert len(ts) - 1 < 99
    assert np.max(np.abs(dense[:, 0] - np.exp(-grid[1:-1]))) <= 1e-9


def test_output_time_on_a_step_gives_its_state():
    # a requested time equal to an accepted step's time reads that step's
    # state exactly (theta = 0 of the step it starts)
    opts = IntegratorOptions(rtol=1e-8, atol=1e-8)
    rhs, _ = _counted_decay()
    ts, ys, _ = integrate_ode(rhs, 0.0, np.array([1.0, -2.0]), 3.0, opts)
    inner = ts[1:-1]
    assert inner.size >= 3
    rhs, _ = _counted_decay()
    _, _, dense = integrate_ode(rhs, 0.0, np.array([1.0, -2.0]), 3.0, opts,
                                output_times=inner)
    assert np.array_equal(dense, ys[1:-1])


def test_output_times_must_increase_inside_the_horizon():
    rhs, _ = _counted_decay()
    opts = IntegratorOptions()
    for bad in ([0.5, 0.2], [0.0, 0.5], [0.5, 1.0], [0.3, 0.3]):
        with pytest.raises(ValueError, match="output times"):
            integrate_ode(rhs, 0.0, np.array([1.0]), 1.0, opts,
                          output_times=bad)


def test_interpolated_width_below_floor_is_reported(tmp_path, monkeypatch):
    # the rhs vets every stage; with an rhs that has no floor and the floor
    # raised above part of the orbit, integrate must still refuse the
    # accepted and the interpolated rows at or below the floor
    sched = ParameterSchedule.standard(0.0, 1.0)
    state = ExtendedState(q=0, p=0, G=1.0, Pi=0.0)  # G swings 1 -> 1/4 -> 1
    floored = dynamics._extended_rhs

    def rhs_without_floor(t, y, sched, hbar):
        with monkeypatch.context() as m:
            m.setattr(dynamics, "G_FLOOR", 0.0)
            return floored(t, y, sched, hbar)

    monkeypatch.setattr(dynamics, "_extended_rhs", rhs_without_floor)
    monkeypatch.setattr(dynamics, "G_FLOOR", 0.3)
    _, ys, _ = integrate_ode(lambda t, y: rhs_without_floor(t, y, sched, 1.0),
                             0.0, state.as_array(), math.pi,
                             IntegratorOptions())
    assert ys[:, 2].min() < 0.3  # the swapped rhs let the steps through
    for output_times in (None, np.linspace(0.0, math.pi, 33)[1:-1]):
        with pytest.raises(IntegrationError, match="width G = .* at t=") as err:
            integrate(state, math.pi, sched, output_times=output_times)
        t = err.value.last_t
        assert 0.0 < t < math.pi
        assert math.cos(t) ** 2 + math.sin(t) ** 2 / 4 > 0.3
    cfg = cli.parse_config("epsilon=0.0\n[simulate]\ng0=1.0\n"
                           f"t1={math.pi!r}\nsamples=32\n")
    assert cli.run("simulate", cfg, out_dir=tmp_path) == 1


def test_integrate_rejects_bad_horizon():
    sched = ParameterSchedule.standard(0.0, 1.0)
    state = ExtendedState(q=1, p=0, G=0.5, Pi=0, t=1.0)
    with pytest.raises(ValueError):
        integrate(state, 0.5, sched)


def test_width_guard_reports_failure():
    # constant c < 0 with b = 0 gives dG/dt = 2cG: monotone width collapse
    # that must hit the positivity floor and abort with the last good time
    sched = ParameterSchedule(
        kind=FOURIER, period=1.0, a_coeffs=((1.0, 0.0),),
        b_coeffs=((0.0, 0.0),), c_coeffs=((-1.0, 0.0),))
    state = ExtendedState(q=0, p=0, G=1e-4, Pi=0.0)
    with pytest.raises(IntegrationError) as err:
        integrate(state, 10.0, sched)
    assert err.value.last_t is not None
    assert 0.0 < err.value.last_t < 10.0
    # rk4-fixed meets the floor in a stage of the step that crosses it:
    # last_t is that step's start, still above it
    rk4 = IntegratorOptions(method="rk4-fixed", step=0.01)
    with pytest.raises(IntegrationError, match="floor") as err:
        integrate(state, 10.0, sched, opts=rk4)
    last_good = integrate(state, err.value.last_t, sched, opts=rk4).final
    assert last_good.G > dynamics.G_FLOOR


def test_fixed_step_final_row_at_floor_is_reported(tmp_path):
    # one rk4 step with b = 0 and c = 0 at the step's start and middle
    # keeps every stage at the start width, which the rhs accepts; c = -6
    # at its end takes the final row to G0 (1 - 0.5 * 6 / 3) = 0, which
    # only integrate's row check sees
    sched = ParameterSchedule(
        kind=FOURIER, period=1.0, a_coeffs=((1.0, 0.0),),
        b_coeffs=((0.0, 0.0),), c_coeffs=((-3.0, 0.0), (3.0, 3.0)))
    opts = IntegratorOptions(method="rk4-fixed", step=0.5)
    state = ExtendedState(q=0, p=0, G=0.5, Pi=0.0)
    _, ys, _ = integrate_ode(
        lambda t, y: dynamics._extended_rhs(t, y, sched, 1.0),
        0.0, state.as_array(), 0.5, opts)
    assert len(ys) == 2 and ys[-1, 2] <= dynamics.G_FLOOR
    with pytest.raises(IntegrationError, match="width G = .* at t=0.5") as err:
        integrate(state, 0.5, sched, opts=opts)
    assert err.value.last_t == 0.0
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
def test_only_domain_errors_reject_steps(method):
    # a DomainError raised in the rhs is a state leaving the domain: the
    # adaptive stepper halves the step and reports an IntegrationError at
    # the wall; any other ValueError is a bug and must propagate unchanged
    opts = IntegratorOptions(method=method, step=0.01)

    def rhs_raising(exc):
        def rhs(t, y):
            if t > 0.25:
                raise exc("past the wall")
            return -y
        return rhs

    with pytest.raises(IntegrationError) as err:
        integrate_ode(rhs_raising(DomainError), 0.0, np.array([1.0]), 1.0,
                      opts)
    assert 0.0 < err.value.last_t <= 0.25
    with pytest.raises(ValueError, match="past the wall") as err:
        integrate_ode(rhs_raising(ValueError), 0.0, np.array([1.0]), 1.0,
                      opts)
    assert type(err.value) is ValueError


# ----------------------------------------------------------------------
# structural invariants
# ----------------------------------------------------------------------

def test_actions_conserved_without_drive():
    sched = ParameterSchedule.standard(0.0, 1.0)
    state = ExtendedState(q=1.0, p=0.0, G=1.0, Pi=0.0)
    I0, J0 = actions(state)
    traj = integrate(state, 10 * TWO_PI, sched)
    for i in range(0, len(traj.t), 40):
        I, J = actions(traj.state_at_index(i))
        assert abs(I - I0) < 1e-8
        assert abs(J - J0) < 1e-8


def test_covariance_determinant_along_flow():
    sched = ParameterSchedule.standard(0.1, 1.0)
    hbar = 2.0
    traj = integrate(ExtendedState(q=0.3, p=-0.1, G=0.8, Pi=0.2),
                     TWO_PI, sched, consts=Constants(hbar=hbar))
    dq2, dp2, cov = covariance(traj.y[:, 2], traj.y[:, 3], hbar)
    assert np.max(np.abs(dq2 * dp2 - cov ** 2 - hbar ** 2 / 4)) < 1e-10


def test_fluctuation_flow_is_hbar_independent():
    sched = ParameterSchedule.standard(0.1, 1.0)
    state = ExtendedState(q=0.4, p=0.3, G=0.7, Pi=-0.1)
    finals = [integrate(state, TWO_PI, sched,
                        consts=Constants(hbar=h)).final
              for h in (0.5, 1.0, 2.0)]
    for f in finals[1:]:
        assert abs(f.G - finals[0].G) < 1e-8
        assert abs(f.Pi - finals[0].Pi) < 1e-8


def test_rk4_fourth_order_convergence():
    sched = ParameterSchedule.standard(0.05, 1.0)
    state = ExtendedState(q=1, p=0, G=0.5, Pi=0)
    ref = integrate(state, TWO_PI, sched,
                    opts=IntegratorOptions(rtol=1e-13, atol=1e-13)).final
    errs = [np.max(np.abs(
        integrate(state, TWO_PI, sched,
                  opts=IntegratorOptions(method="rk4-fixed", step=h)
                  ).final.as_array() - ref.as_array()))
        for h in (8e-3, 4e-3)]
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_phase_additivity():
    sched = ParameterSchedule.standard(0.1, 1.0)
    state = ExtendedState(q=0.8, p=0.1, G=0.6, Pi=-0.05)
    mid = integrate(state, 2.3, sched).final
    split = integrate(mid, TWO_PI, sched).final
    whole = integrate(state, TWO_PI, sched).final
    assert abs(split.lambda_G - whole.lambda_G) < 1e-9
    assert abs(split.lambda_D - whole.lambda_D) < 1e-9


def test_h_eff_combines_parts():
    assert h_eff(1, 0, 0.5, 0, 1, 1, 0, hbar=2.0) == \
        pytest.approx(0.5 + 2.0 * 0.5, abs=1e-15)
