"""The linear route of dynamics.integrate: every column of a trajectory in
closed form from M(t) and K(t) of the Gauss period pass, held against
the exact standard family and against the nonlinear flow, read at the
flow's own accepted steps."""

import math
import re

import numpy as np
import pytest

from squeezephase import checks, cli
from squeezephase import monodromy as monodromy_module
from squeezephase.dynamics import (ExtendedState, IntegratorOptions,
                                   Trajectory, integrate)
from squeezephase.errors import ConvergenceError, IntegrationError
from squeezephase.params import FOURIER, Constants, ParameterSchedule
from witness import (flow, random_fourier, standard_flow,
                     standard_generator)

TWO_PI = 2.0 * math.pi
# the tolerance of the witness flow, tight enough that its own error
# stays under 1e-11
REFERENCE = 1e-13
# a Mathieu schedule inside the first resonance tongue: elliptic at every
# instant (a b > c^2), hyperbolic period map (|tr M(T)| = 2.055)
MATHIEU = ParameterSchedule.fourier(
    math.pi, [(1.0, 0.0), (0.5, 0.0)], [(1.0, 0.0)], [(0.0, 0.0)])


def linear_and_flow(sched, state, t1, hbar, n=None):
    """The linear route and the witness flow at the same times, with no
    interpolation error: the flow's accepted steps, or with n the n + 1
    uniform times of [t0, t1], each the end of a flow leg from the one
    before."""
    consts = Constants(hbar=hbar)
    if n is None:
        witness = flow(state, t1, sched, consts, tol=REFERENCE)
    else:
        times = np.linspace(state.t, t1, n + 1)
        ends = [state]
        for t in times[1:]:
            ends.append(flow(ends[-1], t, sched, consts, tol=REFERENCE).final)
        witness = Trajectory(t=times,
                             y=np.array([end.as_array() for end in ends]))
    return (integrate(state, t1, sched, consts,
                      output_times=witness.t[1:-1]), witness)


def relative_gap(got, want):
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)), axis=0)


@pytest.mark.parametrize("eps, omega", [(0.3, 1.2), (0.75, 0.5), (0.1, 2.0)])
def test_standard_family_matches_exact_solution(eps, omega):
    # M(t) = R(-omega t/2) exp(tB), B = A(0) + (omega/2) J, B^2 = -nu^2 I,
    # over 3.4 periods: x = M x0 and S = M S0 M^T give q, p, G and Pi
    sched = ParameterSchedule.standard(eps, omega)
    q0, p0, G0, Pi0 = 0.6, -0.4, 0.35, 0.15
    t1 = 3.4 * sched.period
    t = np.linspace(0.0, t1, 301)
    traj = integrate(ExtendedState(q=q0, p=p0, G=G0, Pi=Pi0), t1, sched,
                     Constants(hbar=0.7), output_times=t[1:-1])
    M = standard_flow(eps, omega, t)
    S0 = np.array([[2.0 * G0, 4.0 * G0 * Pi0],
                   [4.0 * G0 * Pi0, 0.5 / G0 + 8.0 * G0 * Pi0 ** 2]])
    S = M @ S0 @ np.transpose(M, (0, 2, 1))
    exact = np.column_stack([M @ np.array([q0, p0]), 0.5 * S[:, 0, 0],
                             S[:, 0, 1] / (2.0 * S[:, 0, 0])])
    assert np.array_equal(traj.t, t)
    assert np.all(relative_gap(traj.y[:, :4], exact) <= 1e-11)


def exact_standard_rows(eps, omega, state, hbar, t):
    """Rows (q, p, G, Pi, lambda_G, lambda_D) of the standard family at the
    times t from the exact M(t) = R(-omega t/2) exp(tB) and
    K(t) = int_0^t exp(sB)^T H(0) exp(sB) ds (R(omega s/2)^T H(s)
    R(omega s/2) is H(0)), with the phases of the linear route's formula
    and the row angle unwrapped over 64 points per period."""
    B, nu = standard_generator(eps, omega)
    H0 = np.diag([1.0 + eps, 1.0 - eps])
    # int_0^t of cos^2, cos sin and sin^2 of nu s
    half, twice = t / 2.0, np.sin(2.0 * nu * t) / (4.0 * nu)
    cc, cs, ss = half + twice, np.sin(nu * t) ** 2 / (2.0 * nu), half - twice
    K = (cc[:, None, None] * H0
         + (cs / nu)[:, None, None] * (B.T @ H0 + H0 @ B)
         + (ss / nu ** 2)[:, None, None] * (B.T @ H0 @ B))
    r = math.sqrt(2.0 * state.G)
    W0 = np.array([[r, 0.0], [2.0 * state.Pi * r, 1.0 / r]])
    dense = np.linspace(0.0, t[-1], 64 * math.ceil(t[-1] * omega) + 1)
    both = np.concatenate([t, dense])
    order = np.argsort(both, kind="stable")
    rows = standard_flow(eps, omega, both[order])[:, 0] @ W0
    turns = np.arctan2(rows[:, 1], rows[:, 0])
    assert np.abs(np.diff(np.unwrap(turns))).max() < 1.0
    angle = np.empty_like(both)
    angle[order] = np.unwrap(turns)
    angle = angle[:t.size]
    M = standard_flow(eps, omega, t)
    x0 = np.array([state.q, state.p])
    S = M @ (W0 @ W0.T) @ np.transpose(M, (0, 2, 1))
    centroid = np.einsum("p,npq,q->n", x0, K, x0) / (2.0 * hbar)
    width = 0.25 * np.einsum("npq,pq->n", K, W0 @ W0.T)
    return np.column_stack([
        M @ x0, 0.5 * S[:, 0, 0], S[:, 0, 1] / (2.0 * S[:, 0, 0]),
        state.lambda_G + centroid + width - 0.5 * angle,
        state.lambda_D - centroid - width])


@pytest.mark.parametrize("eps, omega", [(0.3, 1.2), (0.75, 0.5)])
@pytest.mark.parametrize("periods, samples", [(25, 25 * 48), (25.37, 1000)],
                         ids=["commensurate", "incommensurate"])
def test_long_runs_match_the_exact_standard_family(eps, omega, periods,
                                                   samples):
    # over 25 periods every column, the phases too, within 1e-11 of the
    # exact solution: on the commensurate grid each in-period offset's
    # partial step serves 25 samples, on the other nearly every sample
    # has its own
    sched = ParameterSchedule.standard(eps, omega)
    state = ExtendedState(q=0.6, p=-0.4, G=0.35, Pi=0.15, lambda_G=0.5,
                          lambda_D=-0.25)
    t1 = periods * sched.period
    t = np.linspace(0.0, t1, samples + 1)
    traj = integrate(state, t1, sched, Constants(hbar=0.7),
                     output_times=t[1:-1])
    assert np.array_equal(traj.t, t)
    exact = exact_standard_rows(eps, omega, state, 0.7, t)
    assert np.all(relative_gap(traj.y, exact) <= 1e-11)


@pytest.mark.parametrize("eps, omega", [(0.05, 1.0), (0.4, 0.7), (0.8, 0.55)])
def test_matches_the_exact_quadrature_path(eps, omega):
    # the trajectory oracle: every column, the phases too, against the
    # exact path of the built-in checks (the state in closed form, the
    # phases as quadratures of the equations of motion along it) from a
    # seeded general start over 3.37 periods.  128 panels a period put the
    # quadrature at roundoff (64 leave 9.5e-12 in lambda_G at (0.8, 0.55))
    rng = np.random.default_rng(2601)
    q, p, Pi, lam_G, lam_D = rng.uniform(-1.0, 1.0, 5)
    state = ExtendedState(q=q, p=p, G=rng.uniform(0.2, 2.0), Pi=Pi,
                          lambda_G=lam_G, lambda_D=lam_D)
    sched = ParameterSchedule.standard(eps, omega)
    consts = Constants(hbar=0.7)
    t1 = 3.37 * sched.period
    times = np.sort(rng.uniform(0.0, t1, 11))
    traj = integrate(state, t1, sched, consts, output_times=times)
    exact = np.array([checks.exact_path_end(state, t, sched, consts,
                                            panels=128)[0].as_array()
                      for t in traj.t[1:]])
    assert np.all(relative_gap(traj.y[1:], exact) <= 1e-12)


@pytest.mark.parametrize("eps, omega", [(0.4, 0.7), (0.8, 0.55)])
def test_witnesses_hold_the_pass_at_strong_drive(eps, omega):
    # the two witness computations of check away from its drive (0.05, 1):
    # the strongly squeezed orbit at (0.8, 0.55) needs 24 panels a period
    # for the phase quadratures (8 leave 2.0e-8), so these run 32
    sched = ParameterSchedule.standard(eps, omega)
    assert max(checks.orbit_witness(sched, panels=32)) <= 1e-12
    assert max(checks.floquet_witness(sched, panels=32)) <= 1e-12


def flow_cases():
    # a standard schedule and seeded random Fourier ones, 1-4 harmonics
    rng = np.random.default_rng(9807)
    return [ParameterSchedule.standard(0.4, 0.9),
            *(random_fourier(rng, k) for k in range(1, 5))]


@pytest.mark.parametrize("case", range(5))
def test_matches_flow_over_ten_periods(case):
    sched = flow_cases()[case]
    state = ExtendedState(q=0.8, p=-0.5, G=0.45, Pi=-0.12)
    linear, witness = linear_and_flow(sched, state, 10.5 * sched.period,
                                      hbar=0.6)
    assert np.array_equal(linear.t, witness.t)
    assert np.all(relative_gap(linear.y, witness.y) <= 1e-10)


def test_start_time_and_start_phases_carry_over():
    # a start at t0 != 0 with phases already accumulated: the pass runs
    # from t0, and the rows add to the start phases
    sched = random_fourier(np.random.default_rng(3), 3)
    state = ExtendedState(q=-0.3, p=0.9, G=0.8, Pi=0.2, lambda_G=1.25,
                          lambda_D=-0.75, t=2.2)
    linear, witness = linear_and_flow(sched, state, 2.2 + 6.3 * sched.period,
                                      hbar=1.7)
    assert np.array_equal(linear.y[0], state.as_array())
    assert np.all(relative_gap(linear.y, witness.y) <= 1e-10)
    # and split at any time, the two legs give the one-leg rows
    mid = integrate(state, 7.0, sched, Constants(hbar=1.7)).final
    split = integrate(mid, linear.t[-1], sched, Constants(hbar=1.7)).final
    assert np.all(relative_gap(split.as_array(), linear.y[-1]) <= 1e-11)


@pytest.mark.parametrize("G0", [1e-3, 0.02, 4.0])
def test_squeezed_start_states_match_flow(G0):
    # a strongly squeezed width turns its angle by nearly pi within one
    # Gauss step where G is small; the phase must still be counted
    # exactly.  Read on a grid: at its accepted steps near the width's
    # minimum the flow's own error in Pi reaches 1.9e-9 (G0 = 1e-3), where
    # the linear route is within 2.1e-11 of the exact solution
    sched = ParameterSchedule.standard(0.2, 1.3)
    state = ExtendedState(q=0.2, p=0.1, G=G0, Pi=0.3)
    linear, witness = linear_and_flow(sched, state, 2.2 * sched.period,
                                      hbar=1.4, n=61)
    assert np.all(relative_gap(linear.y, witness.y) <= 1e-10)


def test_hyperbolic_period_map_simulates():
    # no normal frame: the growing solution of a resonance tongue is
    # sampled like any other, where orbit/hannay/floquet exit 1.  Read on
    # a grid: the width falls to 4.8e-3, and at the flow's accepted steps
    # there the routes differ by up to 2.4e-10 in Pi, 3.5e-11 with the
    # flow at tol 1e-14: the flow's own error, as in the squeezed case
    state = ExtendedState(q=0.7, p=-0.3, G=0.6, Pi=0.1)
    linear, witness = linear_and_flow(MATHIEU, state, 7.0 * math.pi,
                                      hbar=1.0, n=140)
    assert np.abs(linear.y[:, 0]).max() > 5.0     # it grows
    assert np.all(relative_gap(linear.y, witness.y) <= 1e-10)


def test_one_sample_gives_the_dense_run_final_phase(tmp_path):
    # the phase is unwrapped over every Gauss node of the horizon, not
    # over the output rows: one row 7.3 periods on must read as 4096 do
    text = ("epsilon=0.3\nomega=1.1\nhbar=0.8\n[simulate]\nq0=0.5\n"
            f"g0=0.3\npi0=0.2\nt1={7.3 * TWO_PI / 1.1!r}\n")
    finals = []
    for samples in (1, 4096):
        out = tmp_path / str(samples)
        cfg = cli.parse_config(text + f"samples={samples}\n")
        assert cli.run("simulate", cfg, out_dir=out) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == samples + 2
        finals.append(np.array(lines[-1].split(","), dtype=float))
    one, dense = finals
    assert one[0] == dense[0] and abs(dense[5]) > TWO_PI
    # the same row at roundoff (on numpy 2.4 bit for bit), lambda_G too
    assert np.all(np.abs(one - dense) <= 1e-13 * np.abs(dense))


def test_rows_are_t0_the_output_times_and_t1():
    # one row contract on both routes: without output times, exactly the
    # rows at t0 and t1; None, a scalar and a 2-D array are refused
    sched = ParameterSchedule.standard(0.1, 1.0)
    state = ExtendedState(q=1.0, p=0.0, G=0.5, Pi=0.0, t=0.3)
    t1 = 0.3 + 2.5 * sched.period
    marks = [1.0, 4.5, 12.0]
    for method in ("linear", "rk4-fixed"):
        opts = IntegratorOptions(method=method, step=0.01)
        traj = integrate(state, t1, sched, opts=opts)
        assert traj.t.tolist() == [0.3, t1] and traj.y.shape == (2, 6)
        assert np.array_equal(traj.y[0], state.as_array())
        traj = integrate(state, t1, sched, opts=opts, output_times=marks)
        assert traj.t.tolist() == [0.3, *marks, t1]
        assert traj.y.shape == (5, 6)
        for bad in (None, 4.5, np.array([marks]), np.array([marks]).T):
            with pytest.raises(ValueError, match="1-D sequence"):
                integrate(state, t1, sched, opts=opts, output_times=bad)


def test_width_rows_at_floor_are_refused():
    # constant c < 0 with b = 0: G = G0 exp(2ct) falls through the floor,
    # which integrate's row check refuses on this route too
    sched = ParameterSchedule(
        kind=FOURIER, period=1.0, a_coeffs=((1.0, 0.0),),
        b_coeffs=((0.0, 0.0),), c_coeffs=((-1.0, 0.0),))
    state = ExtendedState(q=0, p=0, G=1e-4, Pi=0.0)
    with pytest.raises(IntegrationError, match="width G = .* floor") as err:
        integrate(state, 10.0, sched,
                  output_times=np.linspace(0.0, 10.0, 41)[1:-1])
    # G falls to the floor at t = ln(100)/2 = 2.30; the row before is 2.25
    assert err.value.last_t == 2.25


def test_coarse_pass_makes_simulate_fail(tmp_path, monkeypatch, capsys):
    # one Gauss step per period of 8.38 hides a full turn of the first
    # row of M, which the two steps of the 2N pass count: the turn
    # comparison refuses.  Six count the turns but fail the N-vs-2N
    # estimate of the period pass
    cfg = cli.parse_config("epsilon=0.05\nomega=0.75\n[simulate]\nq0=1.0\n"
                           "t1=20.0\n")
    state = ExtendedState(q=1.0, p=0.0, G=0.5, Pi=0.0)
    sched = cfg.schedule
    monkeypatch.setattr(monodromy_module, "_step_count", lambda sched: 1)
    turns = (r"N = 1 steps and on 2N = 2 steps turn the first row of M by "
             r"1\.849\d* and 8\.384\d* rad")
    with pytest.raises(ConvergenceError, match=turns):
        integrate(state, 20.0, sched)
    assert cli.run("simulate", cfg, out_dir=tmp_path) == 1
    assert re.search(turns, capsys.readouterr().err)
    monkeypatch.setattr(monodromy_module, "_step_count", lambda sched: 6)
    with pytest.raises(ConvergenceError, match="N = 6 steps and on 2N = 12"):
        integrate(state, 20.0, sched)
    assert cli.run("simulate", cfg, out_dir=tmp_path) == 1
    # the fixed-step route does not run the pass
    rk4 = cli.parse_config("epsilon=0.05\nomega=0.75\nmethod=rk4-fixed\n"
                           "step=0.01\n[simulate]\nq0=1.0\nt1=20.0\n")
    assert cli.run("simulate", rk4, out_dir=tmp_path) == 0
