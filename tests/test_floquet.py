import math

import numpy as np
import pytest

from squeezephase.floquet import (floquet_reports, pert_floquet_phases,
                                  relation_check)
from squeezephase.hannay import PerturbativeModel, hannay_closed_form
from squeezephase.monodromy import normal_form
from squeezephase.orbits import find_periodic_orbit
from squeezephase.params import Constants, ParameterSchedule
from witness import ellipse_points, period_end

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------

def test_pert_phases_ground_state():
    lam_G, lam_D = pert_floquet_phases(PerturbativeModel(0.1, 1.0), 0)
    assert lam_G == pytest.approx(-3.4907e-3, abs=1e-7)
    assert lam_D == pytest.approx(-3.12763, abs=1e-5)


def test_pert_phases_excited_state():
    lam_G, _ = pert_floquet_phases(PerturbativeModel(0.1, 1.0), 2)
    assert lam_G == pytest.approx(-2.5 * 6.9813e-3, abs=1e-6)


def test_pert_phases_without_drive():
    for n in (0, 1, 3):
        lam_G, lam_D = pert_floquet_phases(PerturbativeModel(0.0, 1.0), n)
        assert lam_G == 0.0
        assert lam_D == pytest.approx(-(n + 0.5) * TWO_PI, rel=1e-15)


def test_pert_phases_reject_negative_state():
    with pytest.raises(ValueError):
        pert_floquet_phases(PerturbativeModel(0.1, 1.0), -1)


# ----------------------------------------------------------------------
# quadrature phases
# ----------------------------------------------------------------------

def test_geometric_phase_ground_state_is_orbit_area():
    eps = 0.1
    sched = ParameterSchedule.standard(eps, 1.0)
    lam_G = relation_check(sched, 0).lambda_G_R
    assert lam_G == pytest.approx(-math.pi * eps ** 2 / 9.0, abs=eps ** 3)
    orb = find_periodic_orbit(sched)
    assert lam_G == orb.lambda_G_cycle


def test_geometric_phase_first_excited_state():
    eps = 0.1
    sched = ParameterSchedule.standard(eps, 1.0)
    lam_G = relation_check(sched, 1).lambda_G_R
    assert abs(lam_G - (-1.5 * TWO_PI * eps ** 2 / 9.0)) < 5 * eps ** 3


def test_geometric_phase_vanishes_without_drive():
    sched = ParameterSchedule.standard(0.0, 1.0)
    for n in (0, 1, 2):
        assert abs(relation_check(sched, n).lambda_G_R) < 1e-8


def test_dynamical_phase_ground_state():
    sched = ParameterSchedule.standard(0.1, 1.0)
    assert relation_check(sched, 0).lambda_D_R == \
        pytest.approx(-3.12763, abs=1e-2)


def test_dynamical_phase_scales_with_state_number():
    eps = 0.1
    sched = ParameterSchedule.standard(eps, 1.0)
    lam0, lam1 = (r.lambda_D_R for r in floquet_reports(sched, [0, 1]))
    assert abs(lam1 - 3.0 * lam0) < 5 * eps ** 3 * TWO_PI


def test_dynamical_phase_quantized_without_drive():
    sched = ParameterSchedule.standard(0.0, 1.0)
    assert relation_check(sched, 2).lambda_D_R == \
        pytest.approx(-5.0 * math.pi, abs=1e-8)


def test_negative_state_number_rejected():
    sched = ParameterSchedule.standard(0.05, 1.0)
    with pytest.raises(ValueError):
        relation_check(sched, -1)


# ----------------------------------------------------------------------
# headline relation
# ----------------------------------------------------------------------

def test_relation_residuals_small():
    eps = 0.05
    sched = ParameterSchedule.standard(eps, 1.0)
    tol = 5 * eps ** 3
    for rep in floquet_reports(sched, [0, 1, 2, 3]):
        assert abs(rep.residual_45) <= tol
        assert abs(rep.residual_total) <= tol
        assert rep.I_bar0 == rep.n * 1.0


def test_relation_exact_without_drive():
    rep = relation_check(ParameterSchedule.standard(0.0, 1.0), 1)
    assert rep.theta_H == 0.0
    assert abs(rep.residual_45) < 1e-8
    assert abs(rep.residual_total) < 1e-8
    assert rep.rho == pytest.approx(TWO_PI, abs=1e-12)


def test_relation_for_rational_frequencies():
    eps = 0.05
    tol = 5 * eps ** 3
    for omega in (1.0, 0.5, 2.0 / 3.0, 0.6):
        sched = ParameterSchedule.standard(eps, omega)
        rep = relation_check(sched, 1)
        assert abs(rep.residual_45) <= tol


def test_linearity_in_state_number():
    eps = 0.05
    sched = ParameterSchedule.standard(eps, 1.0)
    reports = floquet_reports(sched, range(5))
    halves = np.array([r.n + 0.5 for r in reports])
    lams = np.array([r.lambda_G_R for r in reports])
    slope, intercept = np.polyfit(halves, lams, 1)
    assert abs(intercept) <= 1e-4
    assert abs(slope + hannay_closed_form(PerturbativeModel(eps, 1.0))) \
        <= 5 * eps ** 3


def test_ensemble_size_converged():
    # a uniform-angle mean of a quadratic form is exact from 3 angles on,
    # so 4 trajectories of the nonlinear flow, started on the invariant
    # ellipse at I_bar0 = n*hbar with the fluctuations on the periodic
    # orbit, must reproduce the trace formulas of the period pass
    hbar = 0.7
    four = ParameterSchedule.fourier(
        5.3, a=[(1.0, 0.0), (0.1, 0.05), (0.03, -0.04)],
        b=[(1.0, 0.0), (-0.08, 0.02)], c=[(0.0, 0.0), (0.02, 0.09)])
    for sched in (ParameterSchedule.standard(0.05, 1.0), four):
        orb = find_periodic_orbit(sched)
        W = normal_form(orb.monodromy).W
        reports = floquet_reports(sched, [1, 3], consts=Constants(hbar=hbar))
        for rep in reports:
            ends = [period_end(sched, q, p, orb.G0, orb.Pi0, hbar=hbar)
                    for q, p in ellipse_points(W, rep.I_bar0, 4)]
            mean_G = np.mean([end.lambda_G for end in ends])
            mean_D = np.mean([end.lambda_D for end in ends])
            assert abs(rep.lambda_G_R - (mean_G - rep.n * rep.rho)) < 1e-8
            assert abs(rep.lambda_D_R - mean_D) < 1e-8


def test_hbar_invariance_of_geometric_phase():
    sched = ParameterSchedule.standard(0.05, 1.0)
    vals, orbits_ = [], []
    for hbar in (0.5, 1.0, 2.0):
        rep = relation_check(sched, 1, consts=Constants(hbar=hbar))
        vals.append(rep.lambda_G_R)
        assert rep.I_bar0 == hbar
    assert max(vals) - min(vals) < 1e-8


def test_report_dict_fields():
    rep = relation_check(ParameterSchedule.standard(0.05, 1.0), 2)
    d = rep.as_dict()
    assert set(d) == {"n", "I_bar0", "hbar", "rho", "lambda_G_R",
                      "lambda_D_R", "theta_H", "residual_45",
                      "residual_total"}
    assert d["n"] == 2
    assert d["I_bar0"] == 2.0


def test_generic_schedule_uses_trajectory_angle():
    eps = 0.05
    four = ParameterSchedule.fourier(
        TWO_PI,
        a=[(1.0, 0.0), (eps, 0.0)],
        b=[(1.0, 0.0), (-eps, 0.0)],
        c=[(0.0, 0.0), (0.0, eps)])
    rep = relation_check(four, 1)
    assert abs(rep.theta_H - TWO_PI * eps ** 2 / 9.0) < 5 * eps ** 3
    assert abs(rep.residual_45) < 5 * eps ** 3
