"""Periodic coefficient schedules a(t), b(t), c(t) and global constants.

The generalized harmonic oscillator H = (a q^2 + b p^2 + c(qp+pq))/2 is
driven by coefficients with a common period T.  Two schedule kinds are
supported: the one-parameter standard family

    a = 1 + eps*cos(omega*t),  b = 1 - eps*cos(omega*t),  c = eps*sin(omega*t)

and a generic truncated Fourier series per coefficient.  Bounded motion
requires the elliptic condition a*b > c^2 everywhere on the period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import NonEllipticError

# the certified ellipticity test of fourier() doubles its sample count up
# to this cap before it refuses a schedule
_MAX_CERTIFY_SAMPLES = 1 << 20

STANDARD = "standard-family"
FOURIER = "fourier"


@dataclass(frozen=True)
class Constants:
    """Physical constants: hbar sets the action scale of the fluctuations."""

    hbar: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")


@dataclass(frozen=True)
class ParameterSchedule:
    """T-periodic coefficient triple of the oscillator.

    Build through :meth:`standard` or :meth:`fourier`; the raw constructor
    performs no ellipticity validation (useful for probing bad schedules
    with :func:`ellipticity_margin`).
    """

    kind: str
    period: float
    epsilon: float = 0.0
    omega: float = 0.0
    # Fourier data: per coefficient, a tuple of (cos, sin) pairs; index k
    # multiplies cos/sin(2*pi*k*t/T), so k=0 carries the constant term.
    a_coeffs: tuple = ()
    b_coeffs: tuple = ()
    c_coeffs: tuple = ()

    @classmethod
    def standard(cls, epsilon: float, omega: float) -> "ParameterSchedule":
        if not (0.0 <= epsilon < 1.0):
            raise NonEllipticError(
                f"standard family requires 0 <= epsilon < 1, got {epsilon}"
            )
        if not (omega > 0.0 and math.isfinite(omega)):
            raise ValueError(f"omega must be positive and finite, got {omega}")
        return cls(kind=STANDARD, period=2.0 * math.pi / omega,
                   epsilon=float(epsilon), omega=float(omega))

    @classmethod
    def fourier(cls, period: float, a, b, c) -> "ParameterSchedule":
        """Generic schedule from (cos, sin) coefficient pairs for a, b, c."""
        if not (period > 0.0 and math.isfinite(period)):
            raise ValueError(f"period must be positive and finite, got {period}")
        sched = cls(kind=FOURIER, period=float(period),
                    a_coeffs=_pairs(a), b_coeffs=_pairs(b), c_coeffs=_pairs(c))
        margin = ellipticity_margin(sched)
        if not margin > 0.0:
            raise NonEllipticError(
                f"schedule is not certified to keep a*b > c^2: lower bound "
                f"{margin:.6g} of min(a*b - c^2)")
        return sched

    def eval(self, t: float):
        """Coefficients (a, b, c) at time t, exactly T-periodic.

        The argument is reduced modulo T before any trigonometric call so
        that phase quadratures over many periods do not drift.
        """
        tau = t % self.period
        if self.kind == STANDARD:
            w = self.omega * tau
            ec = self.epsilon * math.cos(w)
            return 1.0 + ec, 1.0 - ec, self.epsilon * math.sin(w)
        return self._fourier_sums(2.0 * math.pi * tau / self.period,
                                  math.cos, math.sin)

    def sample(self, t):
        """Coefficient arrays (a, b, c) at an array of times.

        The numpy form of :meth:`eval`, with the same reduction modulo T
        and the same operations in the same order.
        """
        tau = np.asarray(t, dtype=float) % self.period
        if self.kind == STANDARD:
            w = self.omega * tau
            ec = self.epsilon * np.cos(w)
            return 1.0 + ec, 1.0 - ec, self.epsilon * np.sin(w)
        sums = self._fourier_sums(2.0 * math.pi * tau / self.period,
                                  np.cos, np.sin)
        # a schedule without harmonics sums to constants
        return tuple(v + np.zeros_like(tau) for v in sums)

    def _fourier_sums(self, base, cos, sin):
        # k = 0 carries the constant term (its sine has no effect); each
        # harmonic's cos/sin is shared by the three coefficients
        (a, _), (b, _), (c, _) = (
            self.a_coeffs[0], self.b_coeffs[0], self.c_coeffs[0])
        harmonics = zip_longest(self.a_coeffs[1:], self.b_coeffs[1:],
                                self.c_coeffs[1:], fillvalue=(0.0, 0.0))
        for k, ((ac, as_), (bc, bs), (cc, cs)) in enumerate(harmonics, 1):
            ck, sk = cos(k * base), sin(k * base)
            a += ac * ck + as_ * sk
            b += bc * ck + bs * sk
            c += cc * ck + cs * sk
        return a, b, c

def _pairs(coeffs):
    out = tuple((float(c), float(s)) for c, s in coeffs)
    if not out:
        raise ValueError("fourier coefficient list must not be empty")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"fourier coefficients must be finite, got {out}")
    return out


def _certified_margin(sched: ParameterSchedule):
    """(bound, sampled, n): a lower bound of min(a*b - c^2) over the period
    of a Fourier schedule, from the minimum of n uniform samples.

    f = a*b - c^2 is a trigonometric polynomial of degree 2H (H the highest
    harmonic), built from the coefficient tuples.  Every angle lies within
    pi/n of a sample, and Bernstein's inequality bounds |df/dtheta| by 2H
    times the sum of the harmonic amplitudes |f_k| of f, so

        min f >= sampled - 2 pi H sum_k |f_k| / n.

    n starts at 16 H + 16 and doubles, up to _MAX_CERTIFY_SAMPLES, while
    the bound is not positive but the sampled minimum is.
    """
    H = max(map(len, (sched.a_coeffs, sched.b_coeffs, sched.c_coeffs))) - 1
    # huge finite coefficients overflow to inf or nan, which fourier()
    # refuses as a bound that is not positive
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c = (_exponentials(pairs, H) for pairs in (
            sched.a_coeffs, sched.b_coeffs, sched.c_coeffs))
        # f[k] multiplies exp(i k theta), k = 0..2H; harmonic k of the
        # real f has the amplitude 2 |f[k]|
        f = (np.convolve(a, b) - np.convolve(c, c))[2 * H:]
        amplitudes = 2.0 * float(np.abs(f[1:]).sum())
        n = 16 * H + 16
        while True:
            spectrum = np.zeros(n // 2 + 1, dtype=complex)
            spectrum[:f.size] = f
            sampled = float(np.min(n * np.fft.irfft(spectrum, n)))
            bound = sampled - 2.0 * math.pi * H * amplitudes / n
            if (bound > 0.0 or not sampled > 0.0
                    or 2 * n > _MAX_CERTIFY_SAMPLES):
                return bound, sampled, n
            n *= 2


def _exponentials(pairs, H):
    """Coefficients of exp(i k theta), k = -H..H, of sum_k (cos_k cos k
    theta + sin_k sin k theta)."""
    cos, sin = np.array(pairs).T
    half = 0.5 * (cos - 1j * sin)
    half[0] = cos[0]
    z = np.zeros(2 * H + 1, dtype=complex)
    z[H:H + half.size] = half
    z[H - half.size + 1:H + 1] = np.conj(half[::-1])
    return z


def ellipticity_margin(sched: ParameterSchedule) -> float:
    """A certified lower bound of min(a*b - c^2) over the period.

    The standard family has a*b - c^2 = 1 - eps^2 identically; a Fourier
    schedule gets the bound of _certified_margin.  A schedule leaves the
    elliptic regime only if the margin is not positive; it is returned,
    not raised, so callers can probe invalid schedules.
    """
    if sched.kind == STANDARD:
        return 1.0 - sched.epsilon ** 2
    return _certified_margin(sched)[0]
