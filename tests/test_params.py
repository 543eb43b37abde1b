import math

import numpy as np
import pytest

from squeezephase.errors import NonEllipticError
from squeezephase.params import (Constants, ParameterSchedule,
                                 ellipticity_margin)


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


def test_margin_non_elliptic_constant_schedule():
    sched = ParameterSchedule.fourier(
        1.0, a=[(0.5, 0.0)], b=[(0.5, 0.0)], c=[(1.0, 0.0)],
        require_elliptic=False)
    assert ellipticity_margin(sched) == pytest.approx(-0.75, abs=1e-15)


def test_fourier_constructor_rejects_non_elliptic():
    with pytest.raises(NonEllipticError):
        ParameterSchedule.fourier(
            1.0, a=[(0.5, 0.0)], b=[(0.5, 0.0)], c=[(1.0, 0.0)])


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
