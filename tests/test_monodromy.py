import math

import numpy as np
import pytest

from squeezephase.dynamics import ExtendedState, IntegratorOptions, integrate
from squeezephase import cli
from squeezephase import monodromy as monodromy_module
from squeezephase.errors import (ConvergenceError, IntegrationError,
                                 NonEllipticError)
from squeezephase.checks import ellipse_points
from squeezephase.monodromy import (compute_monodromy, fluctuation_point,
                                    normal_frame)
from squeezephase.params import ParameterSchedule
from witness import FLOW, period_end, random_fourier, rk45_period_pass

TWO_PI = 2.0 * math.pi


def rotation(sigma):
    # rotation advancing the angle of (q, p) = sqrt(2I) (sin, cos)
    return np.array([[math.cos(sigma), math.sin(sigma)],
                     [-math.sin(sigma), math.cos(sigma)]])


# ----------------------------------------------------------------------
# monodromy computation
# ----------------------------------------------------------------------

def test_unperturbed_monodromy_is_identity():
    mono = compute_monodromy(ParameterSchedule.standard(0.0, 1.0))
    assert np.max(np.abs(mono.M - np.eye(2))) < 1e-10
    assert mono.sigma == 0.0
    assert mono.winding == 1
    assert mono.rho == pytest.approx(TWO_PI, abs=1e-12)


def test_rotation_number_matches_meanfield_frequency():
    mono = compute_monodromy(ParameterSchedule.standard(0.1, 1.0))
    assert mono.rho == pytest.approx(TWO_PI * (1 - 0.01 / 3), abs=5e-3 ** 1)
    # tighter: the known accuracy of the second-order frequency
    assert abs(mono.rho - TWO_PI * (1 - 0.01 / 3)) < 5 * 0.1 ** 3


def test_rotation_number_slow_drive():
    eps, omega = 0.05, 0.5
    mono = compute_monodromy(ParameterSchedule.standard(eps, omega))
    pred = (1 - eps ** 2 / (omega + 2.0)) * TWO_PI / omega
    assert abs(mono.rho - pred) < 5 * eps ** 3


def test_determinant_symplectic():
    for eps, omega in [(0.0, 1.0), (0.1, 1.0), (0.2, 0.7), (0.05, 2.0)]:
        mono = compute_monodromy(ParameterSchedule.standard(eps, omega))
        assert abs(np.linalg.det(mono.M) - 1.0) < 1e-13


def test_rotation_number_continuous_in_drive():
    rhos = [compute_monodromy(ParameterSchedule.standard(e, 1.0)).rho
            for e in np.arange(0.0, 0.11, 0.01)]
    assert max(abs(b - a) for a, b in zip(rhos, rhos[1:])) < 0.1


def test_resonant_drive_keeps_elliptic_map():
    # omega = 2 parks the map next to minus identity; the frame must
    # still resolve it and the rotation number must track the frequency
    eps, omega = 0.02, 2.0
    mono = compute_monodromy(ParameterSchedule.standard(eps, omega))
    pred = (1 - eps ** 2 / (omega + 2.0)) * TWO_PI / omega
    assert abs(mono.rho - pred) < 5 * eps ** 3


@pytest.mark.parametrize("eps, omega", [
    (0.05, 1.0), (0.4, 0.7), (0.9, 3.0), (0.3, 0.5), (0.02, 2.0),
    (0.3, 0.3), (0.75, 2.5), (0.6, 0.25)])
def test_standard_family_matches_exact_solution(eps, omega):
    # in the frame rotating at -omega/2 the standard drive is static,
    # M(t) = R(-omega t/2) exp(tB), B = A(0) + (omega/2) J; B^2 = -nu^2 I
    # gives M(T) = -(cos(nu T) I + sin(nu T) B/nu) and rho = nu T - pi,
    # and M = cos(sigma) I + sin(sigma) S J gives S = diag(B12, -B21)/nu.
    # In that frame M^T H M = exp(tB^T) H0 exp(tB), H0 = diag(1+eps, 1-eps),
    # so tr(K S) = (2 pi/omega)(2 + omega - 2 eps^2)/nu.  The cases cover
    # windings 0 to 3 and the resonant omega = 2
    mono = compute_monodromy(ParameterSchedule.standard(eps, omega))
    T = TWO_PI / omega
    nu = math.sqrt((1.0 + omega / 2.0) ** 2 - eps ** 2)
    B = np.array([[0.0, 1.0 - eps + omega / 2.0],
                  [-(1.0 + eps + omega / 2.0), 0.0]])
    M = -(math.cos(nu * T) * np.eye(2) + math.sin(nu * T) * B / nu)
    S = np.diag([B[0, 1], -B[1, 0]]) / nu
    tr_KS = TWO_PI / omega * (2.0 + omega - 2.0 * eps ** 2) / nu
    assert np.max(np.abs(mono.M - M)) <= 1e-13
    assert abs(mono.rho - (nu * T - math.pi)) <= 1e-13
    assert np.max(np.abs(mono.S - S)) <= 1e-9 * np.max(np.abs(S))
    assert abs(mono.tr_KS - tr_KS) <= 1e-12 * tr_KS


@pytest.mark.parametrize("sched", [
    ParameterSchedule.standard(0.4, 0.7),
    ParameterSchedule.fourier(
        5.3, a=[(1.0, 0.0), (0.1, 0.05), (0.03, -0.04), (0.02, 0.01)],
        b=[(1.0, 0.0), (-0.08, 0.02), (0.01, 0.03)],
        c=[(0.0, 0.0), (0.02, 0.09), (-0.03, 0.0), (0.0, 0.02)]),
], ids=["standard", "fourier-3"])
def test_samples_do_not_move_the_pass(sched):
    # samples are partial steps off the pass, so M(T), K, rho and the
    # frame are the same bit for bit
    plain = compute_monodromy(sched)
    assert plain.t is None and plain.path is None
    for n in (8, 512, 4096):
        mono = compute_monodromy(sched, n_samples=n)
        assert np.array_equal(mono.M, plain.M)
        assert np.array_equal(mono.K, plain.K)
        assert np.array_equal(mono.W, plain.W)
        assert (mono.rho, mono.sigma, mono.winding) == \
            (plain.rho, plain.sigma, plain.winding)
        assert np.array_equal(mono.t, np.linspace(0.0, sched.period, n + 1))
        assert np.array_equal(mono.path[0], np.eye(2))
        assert np.array_equal(mono.path[-1], plain.M)


def test_sample_count_must_be_positive():
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        compute_monodromy(ParameterSchedule.standard(0.1, 1.0), n_samples=0)


def witness_cases():
    # a standard schedule and one seeded random Fourier schedule per
    # harmonic count 1-8 (every draw of this seed has an elliptic map)
    rng = np.random.default_rng(1998)
    return [ParameterSchedule.standard(0.3, 0.5),
            *(random_fourier(rng, harmonics) for harmonics in range(1, 9))]


def test_gauss_pass_matches_rk45_witness():
    for sched in witness_cases():
        mono = compute_monodromy(sched)
        M, K, rho = rk45_period_pass(sched)
        tr_KS = float(np.sum(K * mono.S))
        assert np.max(np.abs(mono.M - M)) <= 1e-11 * max(1.0, np.abs(M).max())
        assert abs(mono.rho - rho) <= 1e-12
        assert abs(mono.tr_KS - tr_KS) <= 1e-10 * abs(tr_KS)
        # the N-vs-2N estimate sits at roundoff, far under its bound
        assert mono.steps == monodromy_module._step_count(sched)
        assert 0.0 <= mono.estimate <= 1e-13


def test_coarse_pass_cannot_count_windings(tmp_path, monkeypatch):
    # three Gauss steps per period move the normal-frame angle by ~2.1 rad
    # each: the winding is ambiguous and the pass must refuse with a typed
    # error before it runs the 2N pass
    monkeypatch.setattr(monodromy_module, "_step_count", lambda sched: 3)
    with pytest.raises(IntegrationError, match="windings cannot be counted"):
        compute_monodromy(ParameterSchedule.standard(0.05, 1.0))
    cfg = cli.parse_config("epsilon=0.05\nomega=1.0\n")
    assert cli.run("hannay", cfg, out_dir=tmp_path) == 1


def test_coarse_pass_fails_its_error_estimate(tmp_path, monkeypatch, capsys):
    # six steps count the windings (~1.05 rad per step) but leave an error
    # of ~2e-9, which the N-vs-2N comparison must catch and name
    monkeypatch.setattr(monodromy_module, "_step_count", lambda sched: 6)
    with pytest.raises(ConvergenceError,
                       match=r"N = 6 steps and on 2N = 12 steps disagree by "
                             r"\d\.\d{3}e-\d\d .* over the bound 1e-11"):
        compute_monodromy(ParameterSchedule.standard(0.05, 1.0))
    cfg = cli.parse_config("epsilon=0.05\nomega=1.0\n")
    assert cli.run("floquet", cfg, out_dir=tmp_path) == 1
    assert "N = 6 steps" in capsys.readouterr().err


# ----------------------------------------------------------------------
# normal form
# ----------------------------------------------------------------------

def test_normal_form_of_pure_rotation():
    W, _ = normal_frame(rotation(0.3))
    R = np.linalg.solve(W, rotation(0.3) @ W)
    assert np.max(np.abs(R - rotation(0.3))) < 1e-12
    assert abs(np.linalg.det(W) - 1.0) < 1e-12


def test_normal_form_of_sheared_elliptic_map():
    shear = np.array([[1.0, 0.7], [0.0, 1.0]])
    M = shear @ rotation(1.0) @ np.linalg.inv(shear)
    W, _ = normal_frame(M)
    assert abs(np.linalg.det(W) - 1.0) < 1e-10
    R = np.linalg.solve(W, M @ W)
    assert np.max(np.abs(R @ R.T - np.eye(2))) < 1e-8
    assert np.max(np.abs(R - rotation(1.0))) < 1e-8


def test_normal_form_invariants_from_schedule():
    mono = compute_monodromy(ParameterSchedule.standard(0.1, 1.0))
    assert abs(np.linalg.det(mono.W) - 1.0) < 1e-10
    R = np.linalg.solve(mono.W, mono.M @ mono.W)
    assert np.max(np.abs(R @ R.T - np.eye(2))) < 1e-8


def test_normal_form_rejects_hyperbolic():
    M = np.diag([2.0, 0.5])
    with pytest.raises(NonEllipticError):
        normal_frame(M)


def test_normal_form_rejects_sheared_parabolic():
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NonEllipticError):
        normal_frame(M)


def test_normal_frame_rejects_negative_discriminant():
    # |tr M| < 2 and clear of the parabolic tolerance, yet
    # -M12 M21 - d^2 < 0: no real frame exists
    M = np.array([[1.0 - 1e-11, 1.0], [1e-15, 1.0 - 1e-11]])
    with pytest.raises(NonEllipticError, match="parabolic"):
        normal_frame(M)


def random_frame(rng):
    # unimodular, condition number bounded by the squeeze k and shear h
    k, h = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    return (np.diag([k, 1.0 / k]) @ np.array([[1.0, h], [0.0, 1.0]])
            @ rotation(rng.uniform(0.0, TWO_PI)))


def test_normal_frame_recovers_conjugated_rotations():
    # M = P R(sigma) P^-1 with det P = 1: the frame must return sigma and
    # a W with W^-1 M W = R(sigma), det W = 1 and W W^T = P P^T.  Angles
    # 1.05e-6 from 0, pi and 2*pi sit just outside the parabolic refusal
    # (2 - |tr M| = sigma^2 reaches 1e-12 at 1e-6); there the form is
    # resolved only to roundoff / |sin(sigma)|
    rng = np.random.default_rng(20260)
    near = [x + o for x in (0.0, math.pi, TWO_PI)
            for o in (-1e-5, -1.05e-6, 1.05e-6, 1e-5) if 0.0 < x + o < TWO_PI]
    for sigma in [*rng.uniform(0.0, TWO_PI, 64), *near]:
        P = random_frame(rng)
        M = P @ rotation(sigma) @ np.linalg.inv(P)
        W, got = normal_frame(M)
        S = P @ P.T
        tol_S = 1e-9 if sigma in near else 1e-12
        assert abs(got - sigma) <= 1e-12
        R = np.linalg.solve(W, M @ W)
        assert np.max(np.abs(R - rotation(sigma))) <= 1e-12
        assert abs(np.linalg.det(W) - 1.0) <= 1e-12
        assert np.max(np.abs(W @ W.T - S)) <= tol_S * np.max(np.abs(S))


def test_normal_frame_refuses_inside_parabolic_band():
    rng = np.random.default_rng(5)
    for sigma in (5e-7, math.pi - 5e-7, math.pi + 5e-7, TWO_PI - 5e-7):
        P = random_frame(rng)
        with pytest.raises(NonEllipticError, match="parabolic"):
            normal_frame(P @ rotation(sigma) @ np.linalg.inv(P))


def test_frame_is_deterministic():
    mono = compute_monodromy(ParameterSchedule.standard(0.15, 0.9))
    W1 = mono.W
    W2 = compute_monodromy(ParameterSchedule.standard(0.15, 0.9)).W
    assert np.array_equal(W1, W2)


# ----------------------------------------------------------------------
# invariant torus: the form S and its ellipses
# ----------------------------------------------------------------------

def test_unperturbed_ensemble_is_circle():
    mono = compute_monodromy(ParameterSchedule.standard(0.0, 1.0))
    assert np.max(np.abs(mono.S - np.eye(2))) <= 1e-12
    points = ellipse_points(mono.W, 1.0, 8)
    r = math.sqrt(2.0)
    # quarter-turn members sit on the axes of the radius-sqrt(2) circle
    expected = np.array([[0, r], [r, 0], [0, -r], [-r, 0]])
    assert np.max(np.abs(points[[0, 2, 4, 6]] - expected)) < 1e-12
    assert np.max(np.abs(np.hypot(points[:, 0], points[:, 1]) - r)) < 1e-12


def test_ensemble_membership_identity():
    mono = compute_monodromy(ParameterSchedule.standard(0.1, 1.0))
    W = mono.W
    assert np.array_equal(mono.S, W @ W.T)
    assert abs(np.linalg.det(mono.S) - 1.0) <= 1e-12
    points = ellipse_points(W, 0.7, 64)
    vals = np.einsum("ij,jk,ik->i", points, np.linalg.inv(mono.S), points)
    assert np.max(np.abs(vals - 1.4)) < 1e-8


def test_ensemble_area_is_action():
    # shoelace of the inscribed polygon, corrected by the exact N-gon
    # factor (an affine image of the regular polygon in the circle)
    mono = compute_monodromy(ParameterSchedule.standard(0.2, 0.8))
    assert abs(np.linalg.det(mono.S) - 1.0) <= 1e-12
    N, I_bar = 256, 1.0
    points = ellipse_points(mono.W, I_bar, N)
    x, y = points[:, 0], points[:, 1]
    shoelace = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    area = shoelace * (TWO_PI / N) / math.sin(TWO_PI / N)
    assert abs(area - TWO_PI * I_bar) < 1e-6


def test_ensemble_invariant_under_period_map():
    # M S M^T = det(M) S holds at roundoff for the invariant form; the
    # det M - 1 part is the pass's own error, held to 1e-13 elsewhere.
    # Then propagate ellipse points through the full nonlinear pass (the
    # centroid subsystem is linear, so this is also the monodromy action)
    # and check each lands back on the same ellipse.
    sched = ParameterSchedule.standard(0.1, 1.0)
    mono = compute_monodromy(sched)
    M, S = mono.M, mono.S
    assert np.max(np.abs(M @ S @ M.T - np.linalg.det(M) * S)) <= 1e-12
    Sinv = np.linalg.inv(S)
    for point in ellipse_points(mono.W, 1.0, 16):
        final = period_end(sched, point[0], point[1], 0.5, 0.0)
        image = np.array([final.q, final.p])
        assert abs(image @ Sinv @ image - 2.0) < 1e-6


# ----------------------------------------------------------------------
# periodic Gaussian oracle
# ----------------------------------------------------------------------

def test_oracle_unperturbed_fixed_point():
    G0, Pi0 = fluctuation_point(
        compute_monodromy(ParameterSchedule.standard(0.0, 1.0)).S)
    assert G0 == pytest.approx(0.5, abs=1e-10)
    assert Pi0 == pytest.approx(0.0, abs=1e-10)


def test_oracle_first_order_location():
    eps = 0.1
    G0, Pi0 = fluctuation_point(
        compute_monodromy(ParameterSchedule.standard(eps, 1.0)).S)
    assert abs(G0 - (0.5 - eps / 3.0)) < 3 * eps ** 2
    assert abs(Pi0) < 3 * eps ** 2


def newton_fixed_point(sched, x, tol=1e-11, fd_step=1e-6):
    """Fixed point of the time-T fluctuation map by Newton iteration with a
    central-difference Jacobian, the map taken from the nonlinear flow."""
    opts = IntegratorOptions(method="rk45-adaptive", rtol=1e-12, atol=1e-12)

    def residual(pt):
        end = integrate(ExtendedState(q=0.0, p=0.0, G=pt[0], Pi=pt[1]),
                        sched.period, sched, opts=opts).final
        return np.array([end.G, end.Pi]) - pt

    x = np.asarray(x, dtype=float)
    for _ in range(10):
        F = residual(x)
        if np.max(np.abs(F)) < tol:
            return x
        jac = np.column_stack([
            (residual(x + e) - residual(x - e)) / (2.0 * fd_step)
            for e in (np.array([fd_step, 0.0]), np.array([0.0, fd_step]))])
        x = x - np.linalg.solve(jac, F)
    raise AssertionError(f"Newton did not converge, residual {F}")


@pytest.mark.parametrize("eps", [0.05, 0.2])
def test_oracle_matches_newton_solver(eps):
    sched = ParameterSchedule.standard(eps, 1.0)
    G0, Pi0 = fluctuation_point(compute_monodromy(sched).S)
    G_n, Pi_n = newton_fixed_point(sched, (0.5 - eps / 3.0, 0.0))
    assert abs(G0 - G_n) < 1e-8
    assert abs(Pi0 - Pi_n) < 1e-8


def test_oracle_point_is_periodic_under_flow():
    sched = ParameterSchedule.standard(0.1, 1.0)
    G0, Pi0 = fluctuation_point(compute_monodromy(sched).S)
    final = integrate(ExtendedState(q=0, p=0, G=G0, Pi=Pi0),
                      sched.period, sched, opts=FLOW).final
    assert abs(final.G - G0) < 1e-7
    assert abs(final.Pi - Pi0) < 1e-7
