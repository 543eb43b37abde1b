"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math

import numpy as np

from squeezephase.dynamics import (ExtendedState, IntegratorOptions, actions,
                                   covariance, integrate)
from squeezephase.floquet import floquet_reports
from squeezephase.hannay import (_mismatch_rate, hannay_closed_form,
                                 hannay_quadrature)
from squeezephase.monodromy import compute_monodromy, fluctuation_point
from squeezephase.orbits import find_periodic_orbit
from squeezephase.params import Constants, ParameterSchedule
from witness import flow

TWO_PI = 2.0 * math.pi


def _report(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_periodic_orbit_shape():
    eps, omega = 0.05, 1.0
    orb = find_periodic_orbit(ParameterSchedule.standard(eps, omega))
    s = eps / (omega + 2.0)
    dev_G = np.max(np.abs(orb.G - (0.5 - s * np.cos(omega * orb.t))))
    dev_Pi = np.max(np.abs(orb.Pi + s * np.sin(omega * orb.t)))
    tol = 3 * eps ** 2
    ok = dev_G <= tol and dev_Pi <= tol and orb.residual <= 1e-10
    _report(1, ok,
            f"orbit shape dev G={dev_G:.2e}, Pi={dev_Pi:.2e} (tol {tol:.1e}), "
            f"periodicity residual={orb.residual:.2e} (tol 1e-10)")


def test_criterion_2_cyclic_geometric_phase():
    omega = 1.0
    eps_list = (0.02, 0.05, 0.1)
    residuals, within = [], True
    for eps in eps_list:
        orb = find_periodic_orbit(ParameterSchedule.standard(eps, omega))
        target = -math.pi * eps ** 2 / (omega + 2.0) ** 2
        res = abs(orb.lambda_G_cycle - target)
        residuals.append(max(res, 1e-300))
        within = within and res <= eps ** 3
    slope = np.polyfit(np.log(eps_list), np.log(residuals), 1)[0]
    ok = within and slope >= 2.7
    _report(2, ok,
            f"lambda_G residuals {[f'{r:.1e}' for r in residuals]} "
            f"within eps^3, scaling slope {slope:.2f} >= 2.7")


def test_criterion_3_cyclic_dynamical_phase():
    orb = find_periodic_orbit(ParameterSchedule.standard(0.1, 1.0))
    dev = abs(orb.lambda_D_cycle - (-3.12763))
    ok = dev <= 1e-2
    _report(3, ok, f"lambda_D = {orb.lambda_D_cycle:.6f} vs -3.12763 "
                   f"(dev {dev:.1e}, tol 1e-2)")


def test_criterion_4_hannay_quadrature():
    sched = ParameterSchedule.standard(0.1, 1.0)
    closed = hannay_closed_form(sched)
    quad = hannay_quadrature(sched)
    dev = abs(quad - closed)
    rates = [_mismatch_rate(sched, ib) for ib in (0.5, 1.0, 2.0)]
    spread = float(np.max(np.ptp(rates, axis=0)))
    ok = dev <= 1e-5 and spread <= 1e-10
    _report(4, ok,
            f"quadrature {quad:.6e} vs closed {closed:.6e} (dev {dev:.1e}, "
            f"tol 1e-5); action spread {spread:.1e} (tol 1e-10)")


def test_criterion_5_rotation_number():
    worst, worst_tol = 0.0, 1.0
    ok = True
    for omega in (0.5, 1.0, 2.0):
        for eps in (0.02, 0.05, 0.1):
            rho = compute_monodromy(
                ParameterSchedule.standard(eps, omega)).rho
            pred = (1.0 - eps ** 2 / (omega + 2.0)) * TWO_PI / omega
            dev, tol = abs(rho - pred), 5 * eps ** 3
            ok = ok and dev <= tol
            if dev / tol > worst / worst_tol:
                worst, worst_tol = dev, tol
    _report(5, ok, f"max rho deviation {worst:.2e} within 5*eps^3 "
                   f"(worst-case tol {worst_tol:.1e})")


def test_criterion_6_headline_relation():
    eps = 0.05
    sched = ParameterSchedule.standard(eps, 1.0)
    theta = hannay_closed_form(sched)
    tol = 5 * eps ** 3
    reports = floquet_reports(sched, [0, 1, 2, 3])
    worst = max(abs(r.residual_45) for r in reports)
    halves = np.array([r.n + 0.5 for r in reports])
    lams = np.array([r.lambda_G_R for r in reports])
    slope, intercept = np.polyfit(halves, lams, 1)
    ok = worst <= tol and abs(intercept) <= 1e-4 and abs(slope + theta) <= tol
    _report(6, ok,
            f"max |lambda_G_R + (n+1/2)*Theta_H| = {worst:.2e} (tol "
            f"{tol:.1e}); fit intercept {intercept:.1e} (tol 1e-4), slope "
            f"{slope:.6e} vs -Theta_H {-theta:.6e}")


def test_criterion_7_hbar_invariance():
    eps, n = 0.05, 1
    sched = ParameterSchedule.standard(eps, 1.0)
    lams, orbs = [], []
    for hbar in (0.5, 1.0, 2.0):
        rep = floquet_reports(sched, [n], consts=Constants(hbar=hbar))[0]
        lams.append(rep.lambda_G_R)
        final = flow(ExtendedState(q=0, p=0, G=0.6, Pi=0.1), sched.period,
                     sched, Constants(hbar=hbar)).final
        orbs.append((final.G, final.Pi))
    lam_spread = max(lams) - min(lams)
    orb_spread = max(abs(g - orbs[0][0]) + abs(p - orbs[0][1])
                     for g, p in orbs)
    ok = lam_spread < 1e-8 and orb_spread < 1e-8
    _report(7, ok, f"lambda_G_R spread {lam_spread:.1e}, (G,Pi) spread "
                   f"{orb_spread:.1e} across hbar in {{0.5,1,2}} (tol 1e-8)")


def test_criterion_8_oracle_equivalence():
    # the nonlinear flow started at the covariance oracle is the witness:
    # it must return to the oracle after one period and accumulate the
    # cycle phases the period pass derives from tr(KS) and rho
    ok = True
    details = []
    for eps in (0.05, 0.2):
        sched = ParameterSchedule.standard(eps, 1.0)
        G0, Pi0 = fluctuation_point(compute_monodromy(sched).S)
        orb = find_periodic_orbit(sched)
        end = flow(ExtendedState(q=0, p=0, G=G0, Pi=Pi0), sched.period,
                   sched).final
        dev = max(abs(end.G - G0), abs(end.Pi - Pi0),
                  abs(G0 - orb.G0), abs(Pi0 - orb.Pi0))
        quad_dev = max(abs(end.lambda_G - orb.lambda_G_cycle),
                       abs(end.lambda_D - orb.lambda_D_cycle))
        ok = ok and dev <= 1e-8 and quad_dev <= 1e-8
        details.append(f"eps={eps}: oracle periodicity under the flow "
                       f"{dev:.1e}, cycle phases vs flow {quad_dev:.1e}")
    _report(8, ok, "; ".join(details) + " (tol 1e-8)")


def test_criterion_9_structural_invariants():
    sched = ParameterSchedule.standard(0.05, 1.0)
    det_dev = abs(np.linalg.det(compute_monodromy(sched).M) - 1.0)

    hbar = 1.0
    traj = flow(ExtendedState(q=0.4, p=0.2, G=0.7, Pi=0.1), sched.period,
                sched)
    dq2, dp2, cov = covariance(traj.y[:, 2], traj.y[:, 3], hbar)
    cov_dev = float(np.max(np.abs(dq2 * dp2 - cov ** 2 - hbar ** 2 / 4)))

    free = ParameterSchedule.standard(0.0, 1.0)
    state = ExtendedState(q=1.0, p=0.0, G=1.0, Pi=0.0)
    I0, J0 = actions(state)
    traj0 = flow(state, 10 * TWO_PI, free)
    act_dev = 0.0
    for i in range(0, len(traj0.t), 25):
        I, J = actions(traj0.state_at_index(i))
        act_dev = max(act_dev, abs(I - I0), abs(J - J0))

    ref = flow(state, TWO_PI, free, tol=1e-13).final
    errs = [np.max(np.abs(integrate(
        state, TWO_PI, free,
        opts=IntegratorOptions(method="rk4-fixed", step=h)
    ).final.as_array() - ref.as_array())) for h in (8e-3, 4e-3)]
    ratio = errs[0] / errs[1]

    ok = (det_dev <= 1e-10 and cov_dev <= 1e-10 and act_dev <= 1e-8
          and 12.0 <= ratio <= 20.0)
    _report(9, ok,
            f"|det M - 1| = {det_dev:.1e} (1e-10); covariance det dev = "
            f"{cov_dev:.1e} (1e-10); action drift = {act_dev:.1e} (1e-8); "
            f"rk4 ratio = {ratio:.1f} (in [12,20])")


def test_criterion_10_rational_frequency_refinement():
    eps = 0.05
    tol = 5 * eps ** 3
    ok = True
    worst = 0.0
    for omega in (1.0, 0.5, 2.0 / 3.0, 0.6):
        sched = ParameterSchedule.standard(eps, omega)
        for rep in floquet_reports(sched, [0, 1]):
            worst = max(worst, abs(rep.residual_45))
            ok = ok and abs(rep.residual_45) <= tol
    _report(10, ok,
            f"residual_45 stable over omega = 1, 1/2, 2/3, 3/5: max "
            f"{worst:.2e} (tol {tol:.1e})")
