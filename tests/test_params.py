import math

import numpy as np
import pytest

from squeezephase.errors import NonEllipticError
from squeezephase.params import (FOURIER, Constants, ParameterSchedule,
                                 _certified_margin, ellipticity_margin)


def test_unperturbed_schedule():
    sched = ParameterSchedule.standard(0.0, 1.0)
    assert sched.eval(0.7) == (1.0, 1.0, 0.0)


def test_standard_family_at_zero():
    sched = ParameterSchedule.standard(0.1, 1.0)
    a, b, c = sched.eval(0.0)
    assert (a, b, c) == pytest.approx((1.1, 0.9, 0.0), abs=1e-15)


def test_standard_family_quarter_period():
    sched = ParameterSchedule.standard(0.1, 1.0)
    a, b, c = sched.eval(math.pi / 2)
    assert (a, b, c) == pytest.approx((1.0, 1.0, 0.1), abs=1e-15)


@pytest.mark.parametrize("k", [1, 3, 50, 1001])
def test_exact_periodicity_over_many_periods(k):
    sched = ParameterSchedule.standard(0.3, 0.7)
    for t in np.linspace(0.0, sched.period, 11):
        base = np.array(sched.eval(t))
        shifted = np.array(sched.eval(t + k * sched.period))
        assert np.max(np.abs(shifted - base)) < 1e-12


def test_periodicity_bounded_by_argument_spacing():
    # at very long horizons the only deviation left is the float
    # representation error of the argument itself, never accumulated drift
    sched = ParameterSchedule.standard(0.3, 0.7)
    k = 1_000_000
    spacing = np.spacing(k * sched.period)
    for t in np.linspace(0.0, sched.period, 7):
        base = np.array(sched.eval(t))
        shifted = np.array(sched.eval(t + k * sched.period))
        assert np.max(np.abs(shifted - base)) < 4.0 * spacing


def test_parameter_circuit_identities():
    eps = 0.25
    sched = ParameterSchedule.standard(eps, 2.0)
    for t in np.linspace(0.0, sched.period, 101):
        a, b, c = sched.eval(t)
        assert a + b == pytest.approx(2.0, abs=1e-15)
        assert (a - 1.0) ** 2 + c ** 2 == pytest.approx(eps ** 2, abs=1e-15)


def test_margin_standard_family():
    assert ellipticity_margin(ParameterSchedule.standard(0.1, 1.0)) == \
        pytest.approx(0.99, abs=1e-12)
    assert ellipticity_margin(ParameterSchedule.standard(0.0, 1.0)) == 1.0


def test_margin_matches_dense_sampling():
    # the closed form 1 - eps^2 must agree with brute-force sampling of
    # the fourier representation of the same schedule
    eps = 0.37
    four = ParameterSchedule.fourier(
        2 * math.pi,
        a=[(1.0, 0.0), (eps, 0.0)],
        b=[(1.0, 0.0), (-eps, 0.0)],
        c=[(0.0, 0.0), (0.0, eps)])
    assert ellipticity_margin(four, n_samples=8192) == \
        pytest.approx(1.0 - eps ** 2, abs=1e-9)


def _reference_coefficient(pairs, t, period):
    base = 2.0 * math.pi * (t % period) / period
    total = pairs[0][0]
    for k in range(1, len(pairs)):
        ck, sk = pairs[k]
        total += ck * math.cos(k * base) + sk * math.sin(k * base)
    return total


@pytest.mark.parametrize("harmonics", [(1, 3, 6), (6, 1, 3), (3, 6, 1)])
def test_fourier_eval_with_unequal_harmonic_counts(harmonics):
    # a, b and c share each harmonic's cos/sin; lists of different length
    # must still give every coefficient its own sum
    rng = np.random.default_rng(sum(harmonics))
    period = 5.3
    coeffs = [[(const, 0.0)] + [tuple(0.1 / k * rng.standard_normal(2))
                                for k in range(1, n + 1)]
              for const, n in zip((1.0, 1.0, 0.0), harmonics)]
    sched = ParameterSchedule.fourier(period, *coeffs)
    for t in np.linspace(-period, 3.0 * period, 64):
        got = sched.eval(float(t))
        want = [_reference_coefficient(pairs, float(t), period)
                for pairs in coeffs]
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-15
    nodes = 2.0 * math.pi * np.arange(4096) / 4096
    a, b, c = (sum(ck * np.cos(k * nodes) + sk * np.sin(k * nodes)
                   for k, (ck, sk) in enumerate(pairs)) for pairs in coeffs)
    assert abs(ellipticity_margin(sched) - np.min(a * b - c * c)) <= 1e-14



@pytest.mark.parametrize("harmonics", [(1, 1, 1), (1, 3, 6), (6, 3, 1),
                                       (3, 6, 1)])
def test_sample_matches_scalar_eval(harmonics):
    # the array form of eval over times spanning several periods, both
    # signs, for the standard family and Fourier lists of unequal length
    rng = np.random.default_rng(7 + sum(harmonics))
    period = 5.3
    coeffs = [[(const, 0.0)] + [tuple(0.1 / k * rng.standard_normal(2))
                                for k in range(1, n + 1)]
              for const, n in zip((1.0, 1.0, 0.0), harmonics)]
    t = np.linspace(-2.0 * period, 3.0 * period, 257)
    for sched in (ParameterSchedule.fourier(period, *coeffs),
                  ParameterSchedule.standard(0.37, 1.3)):
        got = np.array(sched.sample(t))
        want = np.array([sched.eval(x) for x in t.tolist()]).T
        assert got.shape == (3, t.size)
        assert np.max(np.abs(got - want)) <= 1e-15

def test_margin_non_elliptic_constant_schedule():
    sched = ParameterSchedule(
        kind=FOURIER, period=1.0, a_coeffs=((0.5, 0.0),),
        b_coeffs=((0.5, 0.0),), c_coeffs=((1.0, 0.0),))
    assert ellipticity_margin(sched) == pytest.approx(-0.75, abs=1e-15)


def test_fourier_constructor_rejects_non_elliptic():
    with pytest.raises(NonEllipticError):
        ParameterSchedule.fourier(
            1.0, a=[(0.5, 0.0)], b=[(0.5, 0.0)], c=[(1.0, 0.0)])


def test_fourier_constructor_refuses_a_dip_between_samples():
    # a = 1 + 1.2 cos(2 pi 4096 t/T) dips to -0.2, but every one of the
    # 4096 samples of ellipticity_margin sits on a crest
    a = [(1.0, 0.0)] + [(0.0, 0.0)] * 4095 + [(1.2, 0.0)]
    raw = ParameterSchedule(kind=FOURIER, period=1.0, a_coeffs=tuple(a),
                            b_coeffs=((1.0, 0.0),), c_coeffs=((0.0, 0.0),))
    assert ellipticity_margin(raw) == pytest.approx(2.2, abs=1e-9)
    with pytest.raises(NonEllipticError,
                       match=r"lower bound -\S+ .* on n=65552 points"):
        ParameterSchedule.fourier(1.0, a, [(1.0, 0.0)], [(0.0, 0.0)])


@pytest.mark.parametrize("harmonics", [1, 2, 3, 6])
def test_fourier_constructor_certifies_seeded_schedules(harmonics):
    # few-harmonic schedules are certified on the first 16 H + 16 points,
    # and the bound is below the minimum of a dense sample
    rng = np.random.default_rng(11 + harmonics)
    for _ in range(5):
        coeffs = [[(mean, 0.0)] + [tuple(rng.uniform(-0.3, 0.3, 2) / harmonics)
                                   for _ in range(harmonics)]
                  for mean in (1.0, 1.2, 0.1)]
        sched = ParameterSchedule.fourier(rng.uniform(1.0, 8.0), *coeffs)
        bound, sampled, n = _certified_margin(sched)
        assert n == 16 * harmonics + 16
        assert 0.0 < bound < ellipticity_margin(sched, n_samples=1 << 14)
        assert sampled == pytest.approx(
            ellipticity_margin(sched, n_samples=n), abs=1e-14)


def test_certified_margin_doubles_near_the_boundary():
    # a = 1 + 0.999 cos: min 1e-3, which 32 samples cannot certify; a
    # schedule that touches 0 is refused
    near = ParameterSchedule.fourier(1.0, [(1.0, 0.0), (0.999, 0.0)],
                                     [(1.0, 0.0)], [(0.0, 0.0)])
    bound, _, n = _certified_margin(near)
    assert 0.0 < bound < 1e-3 and n > 32
    with pytest.raises(NonEllipticError, match="lower bound"):
        ParameterSchedule.fourier(1.0, [(1.0, 0.0), (1.0, 0.0)],
                                  [(1.0, 0.0)], [(0.0, 0.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fourier_constructor_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        ParameterSchedule.fourier(6.0, a=[(1.0, 0.0), (bad, 0.0)],
                                  b=[(1.0, 0.0)], c=[(0.0, 0.0)])
    with pytest.raises(ValueError, match="finite"):
        ParameterSchedule.fourier(6.0, a=[(1.0, 0.0)], b=[(1.0, 0.0)],
                                  c=[(0.0, bad)])


def test_fourier_constructor_rejects_nan_margin():
    # finite coefficients whose products overflow sample a NaN margin,
    # which must not pass for an elliptic one
    huge = [(1e200, 0.0)]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonEllipticError, match="nan"):
        ParameterSchedule.fourier(1.0, a=huge, b=huge, c=huge)


def test_standard_constructor_rejects_large_epsilon():
    with pytest.raises(NonEllipticError):
        ParameterSchedule.standard(1.0, 1.0)
    with pytest.raises(NonEllipticError):
        ParameterSchedule.standard(-0.1, 1.0)


def test_margin_requires_enough_samples():
    with pytest.raises(ValueError):
        ellipticity_margin(ParameterSchedule.standard(0.1, 1.0), n_samples=8)


def test_constants_validation():
    assert Constants().hbar == 1.0
    assert Constants(hbar=2.0).hbar == 2.0
    with pytest.raises(ValueError):
        Constants(hbar=0.0)
    with pytest.raises(ValueError):
        Constants(hbar=-1.0)
