import math

import numpy as np
import pytest

from squeezephase import hannay
from squeezephase.checks import ellipse_points
from squeezephase.errors import ConvergenceError
from squeezephase.floquet import pert_floquet_phases
from squeezephase.hannay import (_mismatch_rate, hannay_closed_form,
                                 hannay_quadrature, hannay_report,
                                 pert_new_hamiltonian, pert_transform,
                                 trajectory_angle)
from squeezephase.monodromy import compute_monodromy
from squeezephase.params import ParameterSchedule
from witness import period_end

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------------
# perturbative transform
# ----------------------------------------------------------------------

def test_transform_identity_without_drive():
    sched = ParameterSchedule.standard(0.0, 1.0)
    phi, I = pert_transform(0.37, 1.3, 2.0, sched)
    assert phi == 0.37
    assert I == 1.3


def test_transform_at_zero_angle():
    sched = ParameterSchedule.standard(0.1, 1.0)
    phi, I = pert_transform(0.0, 1.0, 0.0, sched)
    assert phi == pytest.approx(0.0, abs=1e-15)
    assert I == pytest.approx(1.0 + 0.2 / 3.0 + 0.02 / 9.0, rel=1e-12)


def test_transform_at_quarter_angle():
    sched = ParameterSchedule.standard(0.1, 1.0)
    phi, I = pert_transform(math.pi / 4.0, 1.0, 0.0, sched)
    assert phi == pytest.approx(math.pi / 4.0 - 0.1 / 3.0, abs=1e-12)
    assert phi == pytest.approx(0.75206, abs=1e-5)


def test_new_hamiltonian_values():
    assert pert_new_hamiltonian(1.0, ParameterSchedule.standard(0.0, 1.0)) == 1.0
    assert pert_new_hamiltonian(1.0, ParameterSchedule.standard(0.1, 1.0)) == \
        pytest.approx(1.0 - 0.01 / 3.0, rel=1e-15)
    assert pert_new_hamiltonian(2.0, ParameterSchedule.standard(0.2, 2.0)) == \
        pytest.approx(1.98, rel=1e-15)


@pytest.mark.parametrize("call", [
    hannay_closed_form,
    hannay_quadrature,
    lambda s: pert_transform(0.0, 1.0, 0.0, s),
    lambda s: pert_new_hamiltonian(1.0, s),
    lambda s: pert_floquet_phases(s, 0),
], ids=["hannay_closed_form", "hannay_quadrature", "pert_transform",
        "pert_new_hamiltonian", "pert_floquet_phases"])
def test_model_requires_standard_family(call):
    four = ParameterSchedule.fourier(
        1.0, a=[(1.0, 0.0)], b=[(1.0, 0.0)], c=[(0.0, 0.0)])
    with pytest.raises(ValueError, match="standard family"):
        call(four)


# ----------------------------------------------------------------------
# closed form
# ----------------------------------------------------------------------

def test_closed_form_values():
    assert hannay_closed_form(ParameterSchedule.standard(0.0, 1.0)) == 0.0
    assert hannay_closed_form(ParameterSchedule.standard(0.1, 1.0)) == \
        pytest.approx(6.9813e-3, abs=1e-7)
    assert hannay_closed_form(ParameterSchedule.standard(0.05, 0.5)) == \
        pytest.approx(2.5133e-3, abs=1e-7)


# ----------------------------------------------------------------------
# quadrature route
# ----------------------------------------------------------------------

def test_quadrature_vanishes_without_drive():
    assert hannay_quadrature(ParameterSchedule.standard(0.0, 1.0)) == \
        pytest.approx(0.0, abs=1e-14)


def test_quadrature_matches_closed_form():
    sched = ParameterSchedule.standard(0.1, 1.0)
    assert abs(hannay_quadrature(sched) - hannay_closed_form(sched)) < 1e-5


def test_quadrature_action_independent():
    # the rate the quadrature integrates is action-free at every node of
    # its grid, so no torus action can move the angle
    sched = ParameterSchedule.standard(0.1, 1.0)
    rates = [_mismatch_rate(sched, ib) for ib in (0.5, 1.0, 2.0)]
    assert np.max(np.ptp(rates, axis=0)) < 1e-10


def test_quadrature_grid_converged(monkeypatch):
    sched = ParameterSchedule.standard(0.1, 1.0)
    coarse = hannay_quadrature(sched)
    monkeypatch.setattr(hannay, "GRID", 1024)
    fine = hannay_quadrature(sched)
    assert abs(fine - coarse) < 1e-8


def test_mismatch_rate_linear_in_action(monkeypatch):
    # the energy mismatch divided by the action must be action-free on the
    # whole grid, which is what licenses the analytic action derivative
    monkeypatch.setattr(hannay, "GRID", 128)
    sched = ParameterSchedule.standard(0.1, 1.0)
    r1 = _mismatch_rate(sched, 1.0)
    r2 = _mismatch_rate(sched, 2.0)
    assert r1.shape == (129, 129)
    assert np.max(np.abs(r2 - r1)) < 1e-10


def test_homogeneity_violation_is_typed(tmp_path, monkeypatch):
    # a mismatch rate that grows with the action breaks the analytic
    # action derivative: a ConvergenceError, exit 1 from the CLI
    from squeezephase import cli
    monkeypatch.setattr(hannay, "_mismatch_rate",
                        lambda sched, I_bar:
                        np.full((hannay.GRID + 1,) * 2, I_bar))
    with pytest.raises(ConvergenceError, match="homogeneity"):
        hannay_quadrature(ParameterSchedule.standard(0.1, 1.0))
    cfg = cli.parse_config("epsilon=0.1\nomega=1.0")
    assert cli.run("hannay", cfg, out_dir=tmp_path) == 1


# ----------------------------------------------------------------------
# trajectory route
# ----------------------------------------------------------------------

def test_trajectory_estimate_vanishes_without_drive():
    sched = ParameterSchedule.standard(0.0, 1.0)
    assert abs(trajectory_angle(compute_monodromy(sched))) < 1e-9


def test_trajectory_estimate_reproduces_closed_form():
    eps = 0.05
    sched = ParameterSchedule.standard(eps, 1.0)
    est = trajectory_angle(compute_monodromy(sched))
    assert abs(est - TWO_PI * eps ** 2 / 9.0) < 5 * eps ** 3


def test_trajectory_estimate_action_independent():
    # rho minus the torus mean of int H_cl dt / I_bar, the mean taken over
    # 4 nonlinear-flow trajectories on the invariant ellipse: int H_cl dt
    # is the lambda_D the centroid adds to a run without centroid
    eps = 0.05
    sched = ParameterSchedule.standard(eps, 1.0)
    mono = compute_monodromy(sched)
    W = mono.W
    base = period_end(sched, 0.0, 0.0, 0.5, 0.0).lambda_D
    ests = []
    for I_bar in (0.5, 2.0):
        hcl = [base - period_end(sched, q, p, 0.5, 0.0).lambda_D
               for q, p in ellipse_points(W, I_bar, 4)]
        ests.append(mono.rho - np.mean(hcl) / I_bar)
    assert abs(ests[0] - ests[1]) < 2 * eps ** 3
    for est in ests:
        assert abs(est - trajectory_angle(mono)) < 1e-8


# ----------------------------------------------------------------------
# rotation number vs perturbative frequency
# ----------------------------------------------------------------------

def test_rotation_residual_scales_faster_than_square():
    omega = 1.0
    eps_list = (0.02, 0.04, 0.08)
    residuals = []
    for eps in eps_list:
        rho = compute_monodromy(ParameterSchedule.standard(eps, omega)).rho
        pred = (1.0 - eps ** 2 / (omega + 2.0)) * TWO_PI / omega
        residuals.append(abs(rho - pred))
    slope = np.polyfit(np.log(eps_list), np.log(residuals), 1)[0]
    assert slope >= 3.0


# ----------------------------------------------------------------------
# report assembly
# ----------------------------------------------------------------------

def test_report_for_standard_family():
    rep = hannay_report(ParameterSchedule.standard(0.05, 1.0))
    assert rep.theta_closed == pytest.approx(TWO_PI * 0.0025 / 9.0, rel=1e-12)
    assert abs(rep.theta_quadrature - rep.theta_closed) < 1e-5
    assert abs(rep.theta_trajectory - rep.theta_closed) < 5 * 0.05 ** 3
    assert rep.rho == pytest.approx(TWO_PI * (1 - 0.0025 / 3), abs=1e-4)


def test_report_for_generic_schedule():
    eps = 0.05
    four = ParameterSchedule.fourier(
        TWO_PI,
        a=[(1.0, 0.0), (eps, 0.0)],
        b=[(1.0, 0.0), (-eps, 0.0)],
        c=[(0.0, 0.0), (0.0, eps)])
    rep = hannay_report(four)
    assert math.isnan(rep.theta_closed)
    assert math.isnan(rep.theta_quadrature)
    assert abs(rep.theta_trajectory - TWO_PI * eps ** 2 / 9.0) < 5 * eps ** 3
