"""Independent references for the squeezephase outputs (numpy only).

Nothing here imports squeezephase.  The centroid flow of
H = (a q^2 + b p^2 + 2 c q p)/2 is linear, dx/dt = A(t) x with
A = [[c, b], [-a, -c]], so every checked output follows from the 2x2
fundamental matrix M(t) and quadratures along it:

* standard family a = 1 + eps cos(omega t), b = 2 - a, c = eps sin(omega t):
  in a frame rotating at -omega/2 the drive is static, so
  M(t) = R(-omega t/2) exp(t B), B = A(0) + (omega/2) J, exactly;
* Fourier schedules: M(t) from a fixed-step RK4 pass over one period.

From M(T) come the invariant symmetric form S (M S M^T = S, det S = 1),
the rotation number rho (windings counted along the path) and
tr(KS) = int_0^T tr(H M S M^T) dt, H = [[a, c], [c, b]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class Schedule:
    """Coefficient schedule as the benchmark generates it.

    kind is "standard" (eps, omega) or "fourier" (period and, per
    coefficient, an array of (cos, sin) pairs indexed by harmonic k).
    """

    kind: str
    period: float
    eps: float = 0.0
    omega: float = 0.0
    a: tuple = ()
    b: tuple = ()
    c: tuple = ()

    @classmethod
    def standard(cls, eps, omega):
        return cls("standard", 2.0 * math.pi / omega, eps=eps, omega=omega)

    @classmethod
    def fourier(cls, period, a, b, c):
        return cls("fourier", float(period), a=_pairs(a), b=_pairs(b),
                   c=_pairs(c))

    @property
    def harmonics(self):
        return max(len(self.a), len(self.b), len(self.c)) - 1

    def abc(self, t):
        """Coefficients (a, b, c) at the times t (array)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "standard":
            w = self.omega * t
            ec = self.eps * np.cos(w)
            return 1.0 + ec, 1.0 - ec, self.eps * np.sin(w)
        base = 2.0 * math.pi * t / self.period
        return tuple(_series(coef, base) for coef in (self.a, self.b, self.c))

    def config_text(self):
        """The schedule lines of a squeeze-phase config."""
        if self.kind == "standard":
            return f"epsilon={self.eps!r}\nomega={self.omega!r}\n"
        lines = [f"period={self.period!r}"]
        for name in ("a", "b", "c"):
            coef = getattr(self, name)
            lines.append(f"{name}_cos=" + ",".join(repr(x) for x, _ in coef))
            lines.append(f"{name}_sin=" + ",".join(repr(y) for _, y in coef))
        return "\n".join(lines) + "\n"


def _pairs(coef):
    return tuple((float(x), float(y)) for x, y in coef)


def _series(coef, base):
    total = np.full_like(base, coef[0][0])
    for k in range(1, len(coef)):
        total = total + coef[k][0] * np.cos(k * base) \
            + coef[k][1] * np.sin(k * base)
    return total


def rotation(theta):
    """exp(theta J) = [[cos, sin], [-sin, cos]]."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def _rotations(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2)


# ----------------------------------------------------------------------
# Fundamental matrix along one period
# ----------------------------------------------------------------------

def standard_path(sched, t):
    """Exact M(t) of the standard family at the times t, shape (n, 2, 2)."""
    eps, om = sched.eps, sched.omega
    t = np.asarray(t, dtype=float)
    nu = math.sqrt((1.0 + 0.5 * om) ** 2 - eps ** 2)
    B = np.array([[0.0, 1.0 - eps], [-(1.0 + eps), 0.0]]) + 0.5 * om * J
    E = (np.cos(nu * t)[:, None, None] * np.eye(2)
         + (np.sin(nu * t) / nu)[:, None, None] * B)
    return _rotations(-0.5 * om * t) @ E


def rk4_path(sched, n_steps):
    """M(t) at n_steps + 1 equally spaced nodes of [0, T], fixed-step RK4.

    The linear RK4 step is applied as a 2x2 propagator built from A at
    the step's start, midpoint and end, so the loop is pure float work.
    """
    T = sched.period
    h = T / n_steps
    a, b, c = sched.abc(0.5 * h * np.arange(2 * n_steps + 1))
    a, b, c = a.tolist(), b.tolist(), c.tolist()
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    out = np.empty((n_steps + 1, 4))
    out[0] = (m11, m12, m21, m22)
    for i in range(n_steps):
        # stage derivatives of the propagator P(h) applied to the identity
        a0, b0, c0 = a[2 * i], b[2 * i], c[2 * i]
        a1, b1, c1 = a[2 * i + 1], b[2 * i + 1], c[2 * i + 1]
        a2, b2, c2 = a[2 * i + 2], b[2 * i + 2], c[2 * i + 2]
        # K1 = A0
        k1 = (c0, b0, -a0, -c0)
        y = (1.0 + 0.5 * h * k1[0], 0.5 * h * k1[1],
             0.5 * h * k1[2], 1.0 + 0.5 * h * k1[3])
        k2 = _amul(a1, b1, c1, y)
        y = (1.0 + 0.5 * h * k2[0], 0.5 * h * k2[1],
             0.5 * h * k2[2], 1.0 + 0.5 * h * k2[3])
        k3 = _amul(a1, b1, c1, y)
        y = (1.0 + h * k3[0], h * k3[1], h * k3[2], 1.0 + h * k3[3])
        k4 = _amul(a2, b2, c2, y)
        w = h / 6.0
        p11 = 1.0 + w * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        p12 = w * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        p21 = w * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        p22 = 1.0 + w * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
        m11, m12, m21, m22 = (p11 * m11 + p12 * m21, p11 * m12 + p12 * m22,
                              p21 * m11 + p22 * m21, p21 * m12 + p22 * m22)
        out[i + 1] = (m11, m12, m21, m22)
    return out.reshape(-1, 2, 2)


def _amul(a, b, c, y):
    """A @ Y for A = [[c, b], [-a, -c]] and Y = (y11, y12, y21, y22)."""
    y11, y12, y21, y22 = y
    return (c * y11 + b * y21, c * y12 + b * y22,
            -a * y11 - c * y21, -a * y12 - c * y22)


def period_nodes(sched, n_nodes):
    """Node times and M at n_nodes + 1 equally spaced points of [0, T]."""
    t = sched.period * np.arange(n_nodes + 1) / n_nodes
    if sched.kind == "standard":
        return t, standard_path(sched, t)
    return t, rk4_path(sched, n_nodes)


def default_nodes(sched):
    """Node count that keeps the RK4 error of M(T) near 1e-12."""
    if sched.kind == "standard":
        return 1024
    # h * (fastest coefficient frequency + natural frequency) ~ 4e-3
    fastest = 2.0 * math.pi * sched.harmonics / sched.period + 2.0
    return int(math.ceil(sched.period * fastest / 4e-3 / 2.0)) * 2


# ----------------------------------------------------------------------
# Invariants of the period map
# ----------------------------------------------------------------------

def invariant_form(M):
    """The symmetric S > 0 with M S M^T = S and det S = 1 (elliptic M)."""
    m11, m12, m21, m22 = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
    S = np.array([[m12, 0.5 * (m22 - m11)], [0.5 * (m22 - m11), -m21]])
    if S[0, 0] < 0.0:
        S = -S
    det = float(np.linalg.det(S))
    if not det > 0.0:
        raise ValueError("monodromy is not elliptic")
    return S / math.sqrt(det)


def winding_angle(Ms, S):
    """Unwrapped angle swept by a solution in the frame where the period
    map is a rotation (q = r sin(phi), p = r cos(phi), phi increasing
    along the unperturbed flow)."""
    L = np.linalg.cholesky(S)
    path = (Ms @ L[:, 1]) @ np.linalg.inv(L).T    # y(t) = L^-1 M(t) L e
    phi = np.unwrap(np.arctan2(path[:, 0], path[:, 1]))
    return float(phi[-1] - phi[0])


@dataclass(frozen=True)
class PhaseReference:
    """Everything the phase checks need for one schedule."""

    M: np.ndarray
    S: np.ndarray
    rho: float
    trKS: float
    t: np.ndarray        # node times on [0, T]
    path: np.ndarray     # M at the nodes

    @property
    def theta(self):
        """Hannay angle rho - tr(KS)/2 (the trajectory route, exact)."""
        return self.rho - 0.5 * self.trKS

    @property
    def margin(self):
        """Distance 2 - |tr M| from the parabolic boundary."""
        return 2.0 - abs(float(np.trace(self.M)))


def phase_reference(sched, n_nodes=None):
    """Monodromy, invariant form, rotation number and tr(KS)."""
    n = n_nodes or default_nodes(sched)
    t, Ms = period_nodes(sched, n)
    M = Ms[-1]
    S = invariant_form(M)
    if sched.kind == "standard":
        om = sched.omega
        nu = math.sqrt((1.0 + 0.5 * om) ** 2 - sched.eps ** 2)
        rho = 2.0 * math.pi * nu / om - math.pi
    else:
        rho = winding_angle(Ms, S)
    a, b, c = sched.abc(t[:-1])
    P = Ms[:-1] @ S @ np.transpose(Ms[:-1], (0, 2, 1))
    integrand = a * P[:, 0, 0] + 2.0 * c * P[:, 0, 1] + b * P[:, 1, 1]
    # periodic integrand: the plain trapezoid rule converges spectrally
    trKS = float(np.sum(integrand)) * sched.period / n
    return PhaseReference(M=M, S=S, rho=rho, trKS=trKS, t=t, path=Ms)


def reference_problems(sched, ref):
    """The reference's own invariants: det M = 1, M S M^T = S, and for the
    standard family the closed-form rho equal to the counted windings."""
    problems = []
    det = float(np.linalg.det(ref.M))
    if not abs(det - 1.0) <= 1e-10:
        problems.append(f"{sched}: det M(T) = {det!r}")
    if not np.abs(ref.M @ ref.S @ ref.M.T - ref.S).max() <= 1e-10:
        problems.append(f"{sched}: M S M^T != S")
    if sched.kind == "standard":
        counted = winding_angle(ref.path, ref.S)
        if not abs(counted - ref.rho) <= 1e-9:
            problems.append(f"{sched}: counted rho {counted!r} != closed "
                            f"form {ref.rho!r}")
    return problems


def closed_form_angle(eps, omega):
    """Second-order Hannay angle 2 pi eps^2 / (omega + 2)^2."""
    return 2.0 * math.pi * eps ** 2 / (omega + 2.0) ** 2


def min_ellipticity(sched, n=8192):
    """min over a dense grid of a*b - c^2."""
    a, b, c = sched.abc(sched.period * np.arange(n) / n)
    return float(np.min(a * b - c * c))


# ----------------------------------------------------------------------
# Trajectory of the extended state (q, p, G, Pi, lambda_G, lambda_D)
# ----------------------------------------------------------------------

def trajectory_reference(sched, state0, hbar, periods, samples, step=0.005):
    """Rows (t, q, p, G, Pi, lambda_G, lambda_D, I, J, H_eff) at the
    samples + 1 output times of [0, periods*T].

    M(kT + tau) = M(tau) M(T)^k extends one period of M to the horizon.
    The Gaussian covariance is S(t) = M S0 M^T with S11 = 2G,
    S12 = 4 G Pi, so G = S11/2 and Pi = S12/(2 S11).  The phase rates
    are integrated by composite Simpson on nodes at most step apart:
    d(lambda_D)/dt = -(H_cl/hbar + tr(H S)/4) and
    d(lambda_G)/dt = H_cl/hbar - G dPi/dt, dS/dt = A S + S A^T.
    """
    if samples % periods:
        raise ValueError("samples must be a multiple of periods")
    spacing = periods * sched.period / samples
    substeps = max(8, 2 * math.ceil(spacing / (2.0 * step)))
    per_period = samples // periods * substeps
    t_one, M_one = period_nodes(sched, per_period)
    MT = M_one[-1]
    blocks, power = [], np.eye(2)
    for k in range(periods):
        blocks.append(M_one[:-1] @ power)
        power = MT @ power
    Ms = np.concatenate(blocks + [power[None]])
    t = sched.period * np.arange(len(Ms)) / per_period

    q0, p0, G0, Pi0 = state0
    S0 = np.array([[2.0 * G0, 4.0 * G0 * Pi0],
                   [4.0 * G0 * Pi0, 0.5 / G0 + 8.0 * Pi0 * Pi0 * G0]])
    x = Ms @ np.array([q0, p0])
    S = Ms @ S0 @ np.transpose(Ms, (0, 2, 1))
    a, b, c = sched.abc(t % sched.period)
    q, p = x[:, 0], x[:, 1]
    s11, s12, s22 = S[:, 0, 0], S[:, 0, 1], S[:, 1, 1]
    hcl = 0.5 * (a * q * q + b * p * p + 2.0 * c * q * p)
    hfl = 0.25 * (a * s11 + 2.0 * c * s12 + b * s22)
    # dS/dt = A S + S A^T, A = [[c, b], [-a, -c]]
    d11 = 2.0 * (c * s11 + b * s12)
    d12 = -a * s11 + b * s22
    area = (d12 * s11 - s12 * d11) / (4.0 * s11)      # G dPi/dt
    lam_D = -_cumulative_simpson(hcl / hbar + hfl, t)
    lam_G = _cumulative_simpson(hcl / hbar - area, t)

    keep = slice(None, None, substeps)
    G, Pi = 0.5 * s11[keep], s12[keep] / (2.0 * s11[keep])
    q, p = q[keep], p[keep]
    I = 0.5 * (q * q + p * p)
    Jf = (G + 0.25 / G + 4.0 * Pi * Pi * G - 1.0) / 4.0
    H_eff = hcl[keep] + hbar * hfl[keep]
    return np.column_stack([t[keep], q, p, G, Pi, lam_G[keep], lam_D[keep],
                            I, Jf, H_eff])


def _cumulative_simpson(f, t):
    """Running integral at every even node (odd nodes left as NaN)."""
    h = t[1] - t[0]
    pairs = (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2]) * (h / 3.0)
    out = np.full(len(f), np.nan)
    out[0] = 0.0
    out[2::2] = np.cumsum(pairs)
    return out
