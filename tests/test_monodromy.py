import dataclasses
import math
import re

import numpy as np
import pytest

from squeezephase.dynamics import ExtendedState, integrate
from squeezephase import cli
from squeezephase import monodromy as monodromy_module
from squeezephase.errors import ConvergenceError, NonEllipticError
from squeezephase.floquet import floquet_reports
from squeezephase.checks import ellipse_points
from squeezephase.monodromy import (compute_monodromy, fluctuation_point,
                                    normal_frame)
from squeezephase.orbits import find_periodic_orbit
from squeezephase.params import ParameterSchedule
from witness import flow, period_end, random_fourier, rk45_period_pass

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


def test_free_half_period_monodromy_is_minus_identity():
    # the free oscillator over T = pi turns by pi: M = -I, whose normal
    # frame is the identity at sigma = pi exactly
    W, sigma = normal_frame(-np.eye(2))
    assert sigma == math.pi and np.array_equal(W, np.eye(2))
    mono = compute_monodromy(ParameterSchedule.standard(0.0, 2.0))
    assert np.max(np.abs(mono.M + np.eye(2))) < 1e-10
    assert mono.sigma == mono.rho == math.pi
    assert np.array_equal(mono.W, np.eye(2))


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
    # orbit samples are partial steps off the pass of the orbit's own
    # monodromy, so M(T), K, rho and the frame are those of the plain
    # pass bit for bit, whatever the sample count
    plain = compute_monodromy(sched)
    for n in (8, 512, 4096):
        orb = find_periodic_orbit(sched, n)
        mono = orb.monodromy
        for name in ("M", "K", "W"):
            assert np.array_equal(getattr(mono, name), getattr(plain, name))
        assert (mono.rho, mono.sigma, mono.winding) == \
            (plain.rho, plain.sigma, plain.winding)
        assert np.array_equal(orb.t, np.linspace(0.0, sched.period, n + 1))
        assert (orb.G[0], orb.Pi[0]) == fluctuation_point(plain.S)
        # the path ends at M: the last sample is S(T) = M S M^T
        end = fluctuation_point(plain.M @ plain.S @ plain.M.T)
        assert (orb.G[-1], orb.Pi[-1]) == end
        sample = mono.flow.sample(sched.period, orb.t[1:-1], mono.W)
        assert np.array_equal(sample.M[0], np.eye(2))
        assert np.array_equal(sample.M[-1], plain.M)


def test_shared_passes_serve_every_consumer_within_the_block(monkeypatch):
    sched = ParameterSchedule.standard(0.1, 1.0)
    period_pass = monodromy_module.period_pass
    with monodromy_module.shared_passes():
        first = period_pass(sched)

        def no_pass(*args):
            raise AssertionError("a shared pass was computed again")

        with monkeypatch.context() as patched:
            patched.setattr(monodromy_module, "_gauss_pass", no_pass)
            assert compute_monodromy(sched).flow is first
            assert find_periodic_orbit(sched, 8).monodromy.flow is first
            floquet_reports(sched, [0, 1])
            integrate(ExtendedState(q=0.3, p=0.1, G=0.6, Pi=0.05),
                      3.5 * sched.period, sched)
            # t0 is keyed as a float
            assert period_pass(sched, 0) is first
        assert period_pass(sched, 0.5) is not first
        assert period_pass(sched) is first
    assert monodromy_module._SHARED.get() is None
    assert period_pass(sched) is not first


def test_pass_arrays_are_read_only():
    # a pass may be shared, so no caller may write into it; M and K of the
    # monodromy are views of the pass
    mono = compute_monodromy(ParameterSchedule.standard(0.1, 1.0))
    for x in (mono.flow.Ms, mono.flow.Ks, mono.flow.alpha, mono.M, mono.K):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            x += 1.0


def test_repeated_offsets_share_one_partial_step(monkeypatch):
    # 20 periods of 205 samples each, at the offsets (j + 1/2) T/205: none
    # is a step time of the 39-step pass (410 and 39 are coprime), and t1
    # = 20.5 T repeats the offset of j = 102.  The sampler takes exactly
    # one partial step per offset, and the first period's samples are
    # those of a one-period sample bit for bit
    sched = ParameterSchedule.standard(0.05, 1.0)
    mono = compute_monodromy(sched)
    flow, W = mono.flow, mono.W
    assert flow.steps == 39
    T = sched.period
    times = T * (np.arange(20 * 205) + 0.5) / 205
    rows = []
    gauss_steps = monodromy_module._gauss_steps

    def counted(sched, t0, h):
        rows.append(t0.size)
        return gauss_steps(sched, t0, h)
    monkeypatch.setattr(monodromy_module, "_gauss_steps", counted)
    many = flow.sample(20.5 * T, times, W)
    assert sum(rows) == 205
    one = flow.sample(T, times[:205], W)
    for name in ("M", "K", "angle"):
        assert np.array_equal(getattr(many, name)[:206],
                              getattr(one, name)[:206])


def spurious_refusal_draws():
    # draws 0 and 40 of a seeded sweep over the standard family and
    # random elliptic Fourier schedules: their normal frames squeeze so
    # strongly that a solution column's angle in them moves 1.593 and
    # 1.653 rad in one Gauss step, while the first row of M turns by much
    # less; the winding must be counted on the row
    rng = np.random.default_rng(7)
    picked = {}
    for i in range(41):
        if i % 2:
            ParameterSchedule.standard(rng.uniform(0, 0.95),
                                       rng.uniform(0.1, 4.0))
            continue
        H = rng.integers(1, 7)
        amp = rng.uniform(0.05, 0.6)
        coeffs = [[(mean, 0.0)] + [tuple(rng.uniform(-amp, amp, 2) / k)
                                   for k in range(1, H + 1)]
                  for mean in (1.0, 1.0, 0.0)]
        period = rng.uniform(1, 30)
        if i in (0, 40):
            picked[i] = ParameterSchedule.fourier(period, *coeffs)
    return picked


@pytest.mark.parametrize("draw", [0, 40])
def test_squeezed_frame_does_not_refuse_the_winding(draw):
    sched = spurious_refusal_draws()[draw]
    mono = compute_monodromy(sched)
    _, _, rho = rk45_period_pass(sched)
    assert abs(mono.rho - rho) <= 1e-12


def fast_row_draws(*picks):
    # draws of a seeded sweep over strongly driven 1-3 harmonic Fourier
    # schedules: the first row of M passes so near the origin that it
    # turns by 1.6 to 3.0 rad in one Gauss step.  127 is elliptic;
    # 63, 89 and 321 are hyperbolic
    rng = np.random.default_rng(5)
    picked = {}
    for i in range(max(picks) + 1):
        H = rng.integers(1, 4)
        amp = rng.uniform(0.4, 0.9)
        period = rng.uniform(3, 25)
        coeffs = [[(mean, 0.0)] + [tuple(rng.uniform(-amp, amp, 2) / k)
                                   for k in range(1, H + 1)]
                  for mean in (1.0, 1.0, 0.0)]
        if i in picks:
            picked[i] = ParameterSchedule.fourier(period, *coeffs)
    return picked


def test_fast_turning_row_is_counted(tmp_path):
    # one of 170 steps turns the row by 1.605 rad; the pass is accurate
    # (|tr M| = 0.930, N and 2N agree to 1e-14) and its winding is right
    sched = fast_row_draws(127)[127]
    mono = compute_monodromy(sched)
    _, _, rho = rk45_period_pass(sched)
    assert abs(mono.rho - rho) <= 1e-12
    cfg = dataclasses.replace(cli.parse_config(""), schedule=sched)
    for sub in ("orbit", "hannay", "floquet"):
        assert cli.run(sub, cfg, out_dir=tmp_path / sub) == 0


@pytest.mark.parametrize("draw, trace", [
    (63, "21.638287"), (89, "3.738027"), (321, "7.676522")])
def test_fast_turning_hyperbolic_map_is_refused_as_such(draw, trace):
    with pytest.raises(NonEllipticError, match=rf"\|tr M\| = {trace} >= 2"):
        compute_monodromy(fast_row_draws(draw)[draw])


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


def test_coarse_pass_cannot_count_windings(tmp_path, monkeypatch, capsys):
    # one Gauss step over a period of 8.38 hides a full turn of the first
    # row of M (read as 1.849 rad); the two steps of the 2N pass turn it
    # by ~4.2 rad each, which only a reading in the direction of b counts
    # (the nearest branch reads -2.1), and the turn comparison refuses
    monkeypatch.setattr(monodromy_module, "_step_count", lambda sched: 1)
    turns = (r"N = 1 steps and on 2N = 2 steps turn the first row of M by "
             r"1\.849\d* and 8\.384\d* rad")
    with pytest.raises(ConvergenceError, match=turns):
        compute_monodromy(ParameterSchedule.standard(0.05, 0.75))
    cfg = cli.parse_config("epsilon=0.05\nomega=0.75\n")
    assert cli.run("hannay", cfg, out_dir=tmp_path) == 1
    assert re.search(turns, capsys.readouterr().err)


def test_partial_steps_are_read_in_the_direction_of_b(monkeypatch):
    # with a = b = 1, c = 0 the first row of M(t) is (cos t, sin t), so
    # its angle is t.  Three Gauss steps over T = 4 pi turn it by 4.19
    # rad each (their error, 1.4e-3 in the angle, let past the estimate
    # bound), and the steps and the partial steps must be read in the
    # direction of b (the nearest branch loses 2 pi)
    monkeypatch.setattr(monodromy_module, "_step_count", lambda sched: 3)
    monkeypatch.setattr(monodromy_module, "_ESTIMATE_BOUND", 1.0)
    sched = ParameterSchedule.standard(0.0, 0.5)
    flow = monodromy_module.period_pass(sched)
    T = sched.period
    times = np.linspace(0.5, T - 0.5, 24)
    angle = flow.sample(T, times, np.eye(2)).angle
    assert np.abs(angle - np.array([0.0, *times, T])).max() <= 1e-2


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
    def residual(pt):
        end = flow(ExtendedState(q=0.0, p=0.0, G=pt[0], Pi=pt[1]),
                   sched.period, sched, tol=1e-12).final
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
    final = flow(ExtendedState(q=0, p=0, G=G0, Pi=Pi0), sched.period,
                 sched).final
    assert abs(final.G - G0) < 1e-7
    assert abs(final.Pi - Pi0) < 1e-7
