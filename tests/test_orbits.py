import math

import numpy as np
import pytest

from squeezephase.monodromy import fluctuation_point
from squeezephase.orbits import find_periodic_orbit
from squeezephase.params import ParameterSchedule
from witness import period_end

TWO_PI = 2.0 * math.pi


def first_order_orbit(eps, omega, t):
    s = 1.0 / (omega + 2.0)
    return 0.5 - eps * s * np.cos(omega * t), -eps * s * np.sin(omega * t)


def strob_map(x, sched):
    """Image of a fluctuation point (G, Pi) under the time-T flow."""
    end = period_end(sched, 0.0, 0.0, x[0], x[1])
    return np.array([end.G, end.Pi])


# ----------------------------------------------------------------------
# stroboscopic map
# ----------------------------------------------------------------------

def test_strob_fixed_point_unperturbed():
    sched = ParameterSchedule.standard(0.0, 1.0)
    image = strob_map((0.5, 0.0), sched)
    assert np.max(np.abs(image - [0.5, 0.0])) < 1e-9


def test_strob_degenerate_periods_unperturbed():
    # every fluctuation orbit closes after T = 2*pi at zero drive
    sched = ParameterSchedule.standard(0.0, 1.0)
    image = strob_map((1.0, 0.0), sched)
    assert np.max(np.abs(image - [1.0, 0.0])) < 1e-8


def test_strob_displaces_stale_fixed_point():
    # under drive the old fixed point is no longer fixed: it rides an
    # invariant circle around the displaced fixed point, staying at
    # distance ~eps/3 from it
    eps = 0.1
    sched = ParameterSchedule.standard(eps, 1.0)
    image = strob_map((0.5, 0.0), sched)
    assert np.hypot(image[0] - 0.5, image[1]) > 1e-4
    fixed = find_periodic_orbit(sched)
    dist = np.hypot(image[0] - fixed.G0, image[1] - fixed.Pi0)
    assert abs(dist - eps / 3.0) < 3 * eps ** 2


# ----------------------------------------------------------------------
# fixed point of the stroboscopic map
# ----------------------------------------------------------------------

def test_newton_immediate_at_zero_drive():
    orb = find_periodic_orbit(ParameterSchedule.standard(0.0, 1.0))
    assert orb.G0 == 0.5
    assert orb.Pi0 == 0.0
    assert orb.residual < 1e-10


def test_newton_first_order_location():
    eps = 0.05
    orb = find_periodic_orbit(ParameterSchedule.standard(eps, 1.0))
    assert abs(orb.G0 - (0.5 - eps / 3.0)) < 3 * eps ** 2
    assert abs(orb.Pi0) < 3 * eps ** 2
    assert orb.residual < 1e-10


def test_newton_matches_covariance_oracle_at_strong_drive():
    from squeezephase.monodromy import compute_monodromy
    sched = ParameterSchedule.standard(0.2, 1.0)
    orb = find_periodic_orbit(sched)
    G0, Pi0 = fluctuation_point(compute_monodromy(sched).S)
    assert abs(orb.G0 - G0) < 1e-8
    assert abs(orb.Pi0 - Pi0) < 1e-8
    image = strob_map((G0, Pi0), sched)
    assert np.max(np.abs(image - [G0, Pi0])) < 1e-8


def test_sample_count_must_be_positive():
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        find_periodic_orbit(ParameterSchedule.standard(0.1, 1.0), n_samples=0)


def test_orbit_samples_positive_and_periodic():
    sched = ParameterSchedule.standard(0.2, 1.0)
    orb = find_periodic_orbit(sched)
    assert np.all(orb.G > 0)
    assert orb.t[0] == 0.0
    assert orb.t[-1] == sched.period
    assert abs(orb.G[-1] - orb.G[0]) < 1e-9
    assert abs(orb.Pi[-1] - orb.Pi[0]) < 1e-9


def test_orbit_tracks_first_order_shape():
    eps = 0.05
    sched = ParameterSchedule.standard(eps, 1.0)
    orb = find_periodic_orbit(sched)
    G_ref, Pi_ref = first_order_orbit(eps, 1.0, orb.t)
    assert np.max(np.abs(orb.G - G_ref)) <= 3 * eps ** 2
    assert np.max(np.abs(orb.Pi - Pi_ref)) <= 3 * eps ** 2


# ----------------------------------------------------------------------
# cycle phases
# ----------------------------------------------------------------------

def test_phases_at_zero_drive():
    orb = find_periodic_orbit(ParameterSchedule.standard(0.0, 1.0))
    lam_G, lam_D = orb.lambda_G_cycle, orb.lambda_D_cycle
    assert abs(lam_G) < 1e-10
    # H_fl = 1/2 at the fixed point, so lambda_D = -T/2 = -pi
    assert lam_D == pytest.approx(-math.pi, abs=1e-9)


def test_geometric_phase_second_order_value():
    eps = 0.1
    lam_G = find_periodic_orbit(
        ParameterSchedule.standard(eps, 1.0)).lambda_G_cycle
    assert abs(lam_G - (-math.pi * eps ** 2 / 9.0)) < eps ** 3


def test_dynamical_phase_second_order_value():
    eps = 0.1
    lam_D = find_periodic_orbit(
        ParameterSchedule.standard(eps, 1.0)).lambda_D_cycle
    assert lam_D == pytest.approx(-3.12763, abs=1e-2)


def test_area_quadratures_agree():
    # the pass gives lambda_G = -rho/2 + tr(KS)/4 and lambda_D = -tr(KS)/4;
    # the nonlinear flow started on the orbit accumulates -int dPi/dt G dt
    # and -int H_fl dt directly, and must come back to its start
    four = ParameterSchedule.fourier(
        5.3, a=[(1.0, 0.0), (0.1, 0.05), (0.03, -0.04)],
        b=[(1.0, 0.0), (-0.08, 0.02)], c=[(0.0, 0.0), (0.02, 0.09)])
    for sched in (ParameterSchedule.standard(0.1, 1.0), four):
        orb = find_periodic_orbit(sched)
        end = period_end(sched, 0.0, 0.0, orb.G0, orb.Pi0)
        assert abs(end.G - orb.G0) < 1e-8
        assert abs(end.Pi - orb.Pi0) < 1e-8
        assert abs(end.lambda_G - orb.lambda_G_cycle) < 1e-8
        assert abs(end.lambda_D - orb.lambda_D_cycle) < 1e-8


@pytest.mark.parametrize("eps, omega", [
    (0.05, 1.0), (0.4, 0.7), (0.9, 3.0), (0.3, 0.5), (0.02, 2.0),
    (0.3, 0.3), (0.75, 2.5), (0.6, 0.25)])
def test_orbit_samples_match_exact_solution(eps, omega):
    # the standard family is solved exactly by M(t) = R(-omega t/2) exp(tB),
    # B = A(0) + (omega/2) J, B^2 = -nu^2 I, and its invariant form is
    # S = diag(B12, -B21)/nu; every sample of the orbit, a partial Gauss
    # step off the pass, must match S(t) = M(t) S M(t)^T
    orb = find_periodic_orbit(ParameterSchedule.standard(eps, omega))
    nu = math.sqrt((1.0 + omega / 2.0) ** 2 - eps ** 2)
    B = np.array([[0.0, 1.0 - eps + omega / 2.0],
                  [-(1.0 + eps + omega / 2.0), 0.0]])
    S = np.diag([B[0, 1], -B[1, 0]]) / nu
    for t, G, Pi in zip(orb.t, orb.G, orb.Pi):
        c, s = math.cos(omega * t / 2.0), math.sin(omega * t / 2.0)
        M = np.array([[c, -s], [s, c]]) @ (
            math.cos(nu * t) * np.eye(2) + math.sin(nu * t) * B / nu)
        St = M @ S @ M.T
        G_exact, Pi_exact = fluctuation_point(St)
        scale = np.max(np.abs(St))
        assert abs(G - G_exact) <= 1e-11 * scale
        assert abs(Pi - Pi_exact) <= 1e-11 * scale


def test_geometric_phase_is_enclosed_area():
    orb = find_periodic_orbit(ParameterSchedule.standard(0.1, 1.0),
                              n_samples=4096)
    x, y = orb.Pi[:-1], orb.G[:-1]
    signed_area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    assert abs(signed_area - orb.lambda_G_cycle) < 1e-8


def test_orbit_is_hbar_free():
    # nothing in the fluctuation sector references hbar; two identical
    # solves must agree bitwise
    a = find_periodic_orbit(ParameterSchedule.standard(0.1, 1.0))
    b = find_periodic_orbit(ParameterSchedule.standard(0.1, 1.0))
    assert a.G0 == b.G0 and a.Pi0 == b.Pi0
    assert a.lambda_G_cycle == b.lambda_G_cycle
    assert a.lambda_D_cycle == b.lambda_D_cycle


def test_small_drive_area_scaling():
    # lambda_G / eps^2 approaches -pi/(omega+2)^2 as the drive shrinks
    omega = 1.0
    ratios = []
    for eps in (0.02, 0.04, 0.08):
        orb = find_periodic_orbit(ParameterSchedule.standard(eps, omega))
        ratios.append(orb.lambda_G_cycle / eps ** 2)
    target = -math.pi / (omega + 2.0) ** 2
    errs = [abs(r - target) for r in ratios]
    assert errs[0] < errs[1] < errs[2]
    assert errs[0] < 5e-4
