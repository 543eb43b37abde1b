"""Built-in invariant suite behind the `check` subcommand.

Each check holds one property (symplecticity, conservation, additivity,
hbar independence, quadrature consistency) on the route that computes
it: the linear route of `simulate`, or the period pass behind `orbit`,
`hannay` and `floquet`.  The others hold a result of the period pass
against an independent witness: the exact solution of the standard
family.  orbit-phase-witness and floquet-flow-witness follow it over one
period as the extended state (exact_path_end): the state in closed form,
its phases as quadratures of the equations of motion along it, which
it is held to solve at every quadrature node.  Only
rk4-self-convergence steps the equations of motion, on the rk4-fixed
route of simulate.  The checks run at desk scale and are shared with the
test suite.

One run computes each distinct period pass once: run_builtin_checks
shares the passes of its seven (schedule, t0) inputs among all the
checks that read them (monodromy.shared_passes), and keeps none of them
after it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, floquet, hannay, monodromy, orbits
from .monodromy import _GL_B, _GL_C, _nu
from .params import STANDARD, Constants, ParameterSchedule


# the drive, frequency and hbar of the checks, unless a check names others
EPS = 0.05
OMEGA = 1.0
HBAR = 1.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def ellipse_points(W, I_bar, n):
    """n points of action I_bar on the invariant ellipse of the normal
    frame W, uniform in the normal-frame angle."""
    phis = 2.0 * math.pi * np.arange(n) / n
    r = math.sqrt(2.0 * I_bar)
    return np.column_stack([r * np.sin(phis), r * np.cos(phis)]) @ W.T


def _standard_exact(eps, omega):
    """(rho, Theta_H) of the standard family to all orders in eps, from
    its exact solution: rho = 2 pi nu/omega - pi and
    Theta_H = pi ((1 + omega/2)/nu - 1), nu = _nu(eps, omega)."""
    nu = _nu(eps, omega)
    return (2.0 * math.pi * nu / omega - math.pi,
            math.pi * ((1.0 + 0.5 * omega) / nu - 1.0))


def check_schedule_periodicity():
    sched = ParameterSchedule.standard(EPS, OMEGA)
    worst = 0.0
    for t in np.linspace(0.0, sched.period, 17):
        for k in (1, 7, 1001):
            base = np.array(sched.eval(t))
            shifted = np.array(sched.eval(t + k * sched.period))
            worst = max(worst, float(np.max(np.abs(shifted - base))))
    return _result("schedule-periodicity", worst < 1e-12,
                   f"max |eval(t+kT)-eval(t)| = {worst:.3e}")


def check_parameter_circuit():
    sched = ParameterSchedule.standard(EPS, OMEGA)
    worst = 0.0
    for t in np.linspace(0.0, sched.period, 257):
        a, b, c = sched.eval(t)
        worst = max(worst, abs(a + b - 2.0),
                    abs((a - 1.0) ** 2 + c * c - EPS * EPS))
    return _result("parameter-circuit", worst < 1e-12,
                   f"max circuit deviation = {worst:.3e}")


def check_action_conservation():
    sched = ParameterSchedule.standard(0.0, OMEGA)
    state = dynamics.ExtendedState(q=1.0, p=0.0, G=1.0, Pi=0.0)
    I0, J0 = dynamics.actions(state)
    t1 = 10 * sched.period
    traj = dynamics.integrate(state, t1, sched,
                              output_times=np.linspace(0.0, t1, 64)[1:-1])
    I, J = dynamics.action_pair(*traj.y[:, :4].T)
    worst = float(np.max(np.abs([I - I0, J - J0])))
    return _result("action-conservation", worst < 1e-12,
                   f"max |dI|,|dJ| over 10 periods = {worst:.3e}")


def exact_path_end(state, t1, sched, consts=Constants(), panels=8):
    """(the extended state at t1, the rate gap) on the exact path of the
    standard family from state, which must start at t = 0.

    The flow is M(t) = R(-omega t/2)(cos(nu t) I + sin(nu t) B/nu), with
    B = A(0) + (omega/2) J, nu = _nu(eps, omega) and R(phi) = exp(phi J).
    The centroid is x = M x0, the covariance form S = M S0 M^T with
    S0 = [[2G, 4G Pi], [4G Pi, 1/(2G) + 8G Pi^2]], and G = S11/2,
    Pi = S12/(2 S11).  lambda_G and lambda_D add the quadratures of the
    phase rates of dynamics._rates along the path, by the 5-node
    Gauss-Legendre rule of the period pass on equal panels of [0, t1],
    `panels` a period (rounded up): no Gauss step, no K, no trace formula
    and no angle lift of the period pass.  8 panels a period put the
    T-periodic integrands of the witnesses at roundoff at the checks'
    drive (0.05, 1).  The strongly squeezed orbit at (0.8, 0.55) needs
    24, and a start off the orbit over several periods 128 there.

    The rate gap is the largest |(G', Pi') of _rates - the derivative of
    the closed form| at the nodes, with S' = A S + S A^T, A = J H(t): the
    path solves the nonlinear width equations to that gap.
    """
    if sched.kind != STANDARD or state.t != 0.0:
        raise ValueError("the exact path starts at t = 0 on the standard "
                         "family")
    eps, omega = sched.epsilon, sched.omega
    nu = _nu(eps, omega)
    n = math.ceil(panels * t1 / sched.period)
    h = t1 / n
    t = np.append(h * (np.arange(n)[:, None] + _GL_C).ravel(), t1)
    B = np.array([[0.0, 1.0 - eps + 0.5 * omega],
                  [-(1.0 + eps + 0.5 * omega), 0.0]])
    cr, sr = np.cos(0.5 * omega * t), np.sin(0.5 * omega * t)
    R = np.stack([np.stack([cr, -sr], -1), np.stack([sr, cr], -1)], -2)
    M = R @ (np.cos(nu * t)[:, None, None] * np.eye(2)
             + (np.sin(nu * t) / nu)[:, None, None] * B)
    G0, Pi0 = state.G, state.Pi
    S0 = np.array([[2.0 * G0, 4.0 * G0 * Pi0],
                   [4.0 * G0 * Pi0, 0.5 / G0 + 8.0 * G0 * Pi0 * Pi0]])
    x = M @ np.array([state.q, state.p])
    S = M @ S0 @ np.transpose(M, (0, 2, 1))
    G, Pi = 0.5 * S[:, 0, 0], S[:, 0, 1] / (2.0 * S[:, 0, 0])
    a, b, c = sched.sample(t)
    A = np.stack([np.stack([c, b], -1), np.stack([-a, -c], -1)], -2)
    AS = A @ S
    dS = AS + np.transpose(AS, (0, 2, 1))
    dG = 0.5 * dS[:, 0, 0]
    dPi = (dS[:, 0, 1] * S[:, 0, 0] - S[:, 0, 1] * dS[:, 0, 0]) / (
        2.0 * S[:, 0, 0] ** 2)
    rows = np.column_stack([a, b, c, x, G, Pi])[:-1].tolist()
    rates = np.array([dynamics._rates(*row, consts.hbar) for row in rows])
    gap = float(max(np.abs(rates[:, 2] - dG[:-1]).max(),
                    np.abs(rates[:, 3] - dPi[:-1]).max()))
    lam_G, lam_D = h * (np.tile(_GL_B, n) @ rates[:, 4:])
    return dynamics.ExtendedState(
        q=x[-1, 0], p=x[-1, 1], G=G[-1], Pi=Pi[-1],
        lambda_G=state.lambda_G + lam_G, lambda_D=state.lambda_D + lam_D,
        t=t1), gap


def check_rk4_convergence():
    sched = ParameterSchedule.standard(EPS, OMEGA)
    state = dynamics.ExtendedState(q=1.0, p=0.0, G=0.5, Pi=0.0)
    ref = dynamics.integrate(state, sched.period, sched).final.as_array()
    coarse, fine = (np.max(np.abs(dynamics.integrate(
        state, sched.period, sched, opts=dynamics.IntegratorOptions(
            method="rk4-fixed", step=sched.period / n)).final.as_array()
        - ref)) for n in (160, 320))
    ratio = coarse / fine
    return _result("rk4-self-convergence", 12.0 <= ratio <= 20.0,
                   f"halving-step error ratio (T/160 to T/320) = "
                   f"{ratio:.2f}")


def check_phase_additivity():
    # the second leg starts at 0.37T with the first leg's phases, so this
    # runs period_pass(t0 != 0) and the phase carry-over
    sched = ParameterSchedule.standard(EPS, OMEGA)
    state = dynamics.ExtendedState(q=0.8, p=0.1, G=0.6, Pi=-0.05)
    T = sched.period
    mid = dynamics.integrate(state, 0.37 * T, sched).final
    two = dynamics.integrate(mid, T, sched).final
    one = dynamics.integrate(state, T, sched).final
    dev = float(np.max(np.abs(two.as_array() - one.as_array())))
    return _result("phase-additivity", dev < 1e-12,
                   f"split-vs-single state and phase deviation = {dev:.3e}")


def check_hbar_independent_fluctuations():
    sched = ParameterSchedule.standard(EPS, OMEGA)
    state = dynamics.ExtendedState(q=0.5, p=0.2, G=0.6, Pi=0.1)
    times = np.linspace(0.0, sched.period, 64)[1:-1]
    rows = [dynamics.integrate(state, sched.period, sched,
                               Constants(hbar=hbar),
                               output_times=times).y[:, 2:4]
            for hbar in (0.5, 1.0, 2.0)]
    same = all(r.tobytes() == rows[0].tobytes() for r in rows)
    return _result("hbar-independent-fluctuations", same,
                   f"(G,Pi) rows bitwise equal across hbar = {same}")


def check_monodromy_symplectic():
    # Gauss steps are symplectic, so det M = 1 holds to roundoff
    worst = estimate = 0.0
    steps = []
    for e in (0.0, EPS):
        mono = monodromy.compute_monodromy(ParameterSchedule.standard(e, OMEGA))
        worst = max(worst, abs(float(np.linalg.det(mono.M)) - 1.0))
        estimate = max(estimate, mono.estimate)
        steps.append(str(mono.steps))
    return _result("monodromy-symplectic", worst < 1e-13,
                   f"max |det M - 1| = {worst:.3e} (N = {', '.join(steps)} "
                   f"steps, estimate {estimate:.3e})")


def check_rotation_number_exact():
    worst = 0.0
    for e in (0.0, 0.0125, 0.025, 0.0375, 0.05):
        rho = monodromy.compute_monodromy(
            ParameterSchedule.standard(e, OMEGA)).rho
        worst = max(worst, abs(rho - _standard_exact(e, OMEGA)[0]))
    return _result("rotation-number-exact", worst < 1e-13,
                   f"max |rho - rho_exact| = {worst:.3e}")


def check_invariant_form():
    # M S M^T - S = (det M - 1) S + roundoff; the det M part is the pass's
    # own error, held by monodromy-symplectic, so S is held to roundoff
    # against det(M) S
    free = monodromy.compute_monodromy(ParameterSchedule.standard(0.0, OMEGA))
    worst_inv = worst_det = 0.0
    for mono in (free, monodromy.compute_monodromy(
            ParameterSchedule.standard(EPS, OMEGA))):
        M, S = mono.M, mono.S
        worst_inv = max(worst_inv, float(np.abs(
            M @ S @ M.T - np.linalg.det(M) * S).max()))
        worst_det = max(worst_det, abs(float(np.linalg.det(S)) - 1.0))
    free_dev = float(np.abs(free.S - np.eye(2)).max())
    ok = worst_inv <= 1e-12 and worst_det <= 1e-12 and free_dev <= 1e-12
    return _result("invariant-form", ok,
                   f"max |M S M^T - det(M) S| = {worst_inv:.3e}, max |det S "
                   f"- 1| = {worst_det:.3e}, |S - I| at eps=0 = "
                   f"{free_dev:.3e}")


def orbit_witness(sched, panels=8):
    """(periodicity gap, phase gap, rate gap) of the exact path over one
    period from the periodic orbit's initial point: it must return to
    the point and accumulate the cycle phases the period pass derives.
    The point and the phases are those of find_periodic_orbit, which
    reads them off the same pass (its t = 0 sample has M = I exactly)."""
    mono = monodromy.compute_monodromy(sched)
    G0, Pi0 = monodromy.fluctuation_point(mono.S)
    lam_G, lam_D = orbits.cycle_phases(mono)
    end, rates = exact_path_end(
        dynamics.ExtendedState(q=0.0, p=0.0, G=G0, Pi=Pi0), sched.period,
        sched, panels=panels)
    return (max(abs(end.G - G0), abs(end.Pi - Pi0)),
            max(abs(end.lambda_G - lam_G), abs(end.lambda_D - lam_D)),
            rates)


def check_orbit_phase_witness():
    periodic, phases, rates = orbit_witness(
        ParameterSchedule.standard(EPS, OMEGA))
    return _result("orbit-phase-witness", max(periodic, phases, rates) < 1e-12,
                   f"|Phi_T(G0, Pi0) - (G0, Pi0)| = {periodic:.3e}, "
                   f"exact-path vs period-pass cycle phases differ by "
                   f"{phases:.3e}, (G, Pi) rates by {rates:.3e}")


def loop_phase(sched, n):
    """(lambda_G as the loop integral on n samples, the same on n/2,
    lambda_G_cycle) of the periodic orbit: -int_0^T (dPi/dt) G dt as T
    times the plain mean over n uniform orbit samples, with dPi/dt from
    the equations of motion, and over their even half, the samples of the
    n/2-sample orbit.  The integrand is periodic and analytic, so the mean
    converges geometrically in n."""
    orb = orbits.find_periodic_orbit(sched, n_samples=n)
    rows = np.column_stack([*sched.sample(orb.t[:-1]), orb.G[:-1],
                            orb.Pi[:-1]])
    rates = [dynamics._rates(a, b, c, 0.0, 0.0, G, Pi, HBAR)[3] * G
             for a, b, c, G, Pi in rows.tolist()]
    return (-sched.period * float(np.mean(rates)),
            -sched.period * float(np.mean(rates[::2])), orb.lambda_G_cycle)


def check_orbit_loop_area():
    # at this drive lambda_G is -0.074, so the bound is ~1e-12 relative;
    # at EPS it would be ~1e-10 (lambda_G = -8.7e-4)
    sched = ParameterSchedule.standard(0.4, 0.7)
    fine, coarse, cycle = loop_phase(sched, 128)
    dev = max(abs(coarse - fine), abs(coarse - cycle), abs(fine - cycle))
    return _result("orbit-loop-area", dev < 1e-13,
                   f"max |loop(64) - loop(128)|, |loop(n) - lambda_G| at "
                   f"(eps, omega) = (0.4, 0.7) = {dev:.3e}")


def check_hannay_routes():
    sched = ParameterSchedule.standard(EPS, OMEGA)
    closed = hannay.hannay_closed_form(sched)
    quad = hannay.hannay_quadrature(sched)
    traj = hannay.trajectory_angle(monodromy.compute_monodromy(sched))
    exact = _standard_exact(EPS, OMEGA)[1]
    ok = abs(quad - closed) < 1e-5 and abs(traj - exact) < 1e-12
    return _result(
        "hannay-routes-agree", ok,
        f"quad-closed = {quad - closed:.3e}, traj-exact = {traj - exact:.3e}")


def check_hannay_action_independence():
    # the quadrature integrates dA/dIbar = A/Ibar; that rate must be free
    # of the action at every node of its grid, not only on average
    sched = ParameterSchedule.standard(EPS, OMEGA)
    rates = [hannay._mismatch_rate(sched, ib) for ib in (0.5, 1.0, 2.0)]
    spread = float(np.max(np.ptp(rates, axis=0)))
    return _result("hannay-action-independence", spread < 1e-10,
                   f"max pointwise spread of A/Ibar across I_bar = "
                   f"{spread:.3e}")


def check_floquet_residuals():
    sched = ParameterSchedule.standard(EPS, OMEGA)
    reports = floquet.floquet_reports(sched, [0, 1, 2, 3])
    tol = 5 * EPS ** 3
    worst45 = max(abs(r.residual_45) for r in reports)
    worst_tot = max(abs(r.residual_total) for r in reports)
    return _result(
        "floquet-headline-relation", worst45 <= tol and worst_tot <= tol,
        f"max |residual_45| = {worst45:.3e}, max |residual_total| = "
        f"{worst_tot:.3e} (tol {tol:.2e})")


def floquet_witness(sched, panels=8):
    """(largest mean gap, rate gap) of the exact path over one period
    from 4 points of the invariant ellipse at I = n*hbar, the
    fluctuations on the periodic orbit, for (n, hbar) in ((1, 0.5),
    (3, 2)): a uniform-angle mean of a quadratic form is exact from 3
    angles on, so the means of the phases must equal the trace formulas
    of the Floquet reports."""
    mono = monodromy.compute_monodromy(sched)
    G0, Pi0 = monodromy.fluctuation_point(mono.S)
    worst = gap = 0.0
    for n, hbar in ((1, 0.5), (3, 2.0)):
        consts = Constants(hbar=hbar)
        rep = floquet.floquet_reports(sched, [n], consts=consts)[0]
        ends = []
        for q, p in ellipse_points(mono.W, rep.I_bar0, 4):
            end, rates = exact_path_end(
                dynamics.ExtendedState(q=q, p=p, G=G0, Pi=Pi0),
                sched.period, sched, consts, panels)
            ends.append(end)
            gap = max(gap, rates)
        mean_G = np.mean([end.lambda_G for end in ends])
        mean_D = np.mean([end.lambda_D for end in ends])
        worst = max(worst, abs(mean_G - n * rep.rho - rep.lambda_G_R),
                    abs(mean_D - rep.lambda_D_R))
    return worst, gap


def check_floquet_flow_witness():
    worst, rates = floquet_witness(ParameterSchedule.standard(EPS, OMEGA))
    return _result("floquet-flow-witness", max(worst, rates) < 1e-12,
                   f"max |exact-path mean - report| over (n, hbar) in "
                   f"{{(1, 0.5), (3, 2)}} = {worst:.3e}, (G, Pi) rates "
                   f"differ by {rates:.3e}")


ALL_CHECKS = (
    check_schedule_periodicity,
    check_parameter_circuit,
    check_action_conservation,
    check_rk4_convergence,
    check_phase_additivity,
    check_hbar_independent_fluctuations,
    check_monodromy_symplectic,
    check_rotation_number_exact,
    check_invariant_form,
    check_orbit_phase_witness,
    check_orbit_loop_area,
    check_hannay_routes,
    check_hannay_action_independence,
    check_floquet_residuals,
    check_floquet_flow_witness,
)


def run_builtin_checks():
    """Run the whole suite (drive strengths 0 and 0.05 where relevant),
    each distinct period pass computed once (monodromy.shared_passes)."""
    with monodromy.shared_passes():
        return [fn() for fn in ALL_CHECKS]
