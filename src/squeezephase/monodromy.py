"""Linear analysis of the centroid subsystem over one period.

The (q, p) equations are linear, so the time-T flow is a 2x2 symplectic
matrix M (the monodromy).  In the elliptic regime |tr M| < 2 it is the
exact identity M = cos(sigma) I + sin(sigma) S J, J = [[0, 1], [-1, 0]],
with S the unique M-invariant symmetric unimodular positive form; S and
sigma are read off the entries of M in closed form, and any W with
S = W W^T, det W = 1 conjugates M to the rotation R(sigma) in the angle
convention q = sqrt(2I) sin(phi), p = sqrt(2I) cos(phi).  The continuous
rotation number rho = 2*pi*k + sigma counts full windings of the flow,
recovered by unwrapping the angle of a fundamental solution expressed in
the W frame over the accepted steps of the pass.

The Gaussian state whose covariance is (hbar/2) S returns to itself after
one period, so fluctuation_point(mono.S) is the initial point (G0, Pi0) of
the periodic fluctuation orbit, exact at any drive strength and
independent of hbar.

compute_monodromy is the one period pass of the package: beside M(t) it
integrates K = int_0^T M^T H M dt, H = [[a, c], [c, b]], so that
int_0^T x^T H x dt = x0^T K x0 along any centroid solution.  The orbit,
the trajectory Hannay angle and every Floquet phase are derived from
rho, S, K and the sampled M(t) without integrating anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import IntegratorOptions, integrate_ode
from .errors import IntegrationError, NonEllipticError
from .params import ParameterSchedule

# Below this distance from +/- identity the frame is meaningless and the
# map is treated as the exact rotation by 0 or pi.
_IDENTITY_TOL = 1e-9

# Truly degenerate normal form; refuse rather than return noise.  (The
# ellipticity of the schedule does not prevent the stroboscopic map from
# grazing the parabolic boundary at resonant omega.)
_PARABOLIC_TOL = 1e-12


@dataclass
class Monodromy:
    """Result of the period pass: the time-T flow matrix of the linear
    centroid system, its rotation, and the quadratic-form quadrature.

    W is the normal frame (W^-1 M W = R(sigma), det W = 1) and
    K = int_0^T M^T H M dt with H = [[a, c], [c, b]].  t and path hold
    M(t) on the sample times the pass was asked for.
    """

    M: np.ndarray
    sigma: float      # normal-form rotation in [0, 2*pi)
    winding: int      # full turns completed during one period
    rho: float        # 2*pi*winding + sigma
    period: float
    W: np.ndarray
    K: np.ndarray
    t: np.ndarray = None
    path: np.ndarray = None

    @property
    def S(self) -> np.ndarray:
        """The M-invariant symmetric unimodular form W W^T."""
        return self.W @ self.W.T

    @property
    def tr_KS(self) -> float:
        """tr(K S): for a uniform-angle ensemble on the invariant ellipse
        of action I, the mean of int_0^T H_cl dt is exactly (I/2) tr(K S)."""
        return float(np.sum(self.K * self.S))


def _period_rhs(sched):
    """d/dt of (M11, M12, M21, M22, K11, K12, K22): M' = A M with
    A = J H, and K' = M^T H M."""
    def rhs(t, y):
        a, b, c = sched.eval(t)
        m11, m12, m21, m22, _, _, _ = y.tolist()
        h11, h12 = a * m11 + c * m21, a * m12 + c * m22
        h21, h22 = c * m11 + b * m21, c * m12 + b * m22
        return np.array([h21, h22, -h11, -h12, m11 * h11 + m21 * h21,
                         m11 * h12 + m21 * h22, m12 * h12 + m22 * h22])
    return rhs


# the matrix flow is cheap; run it tighter than the trajectory default so
# the symplectic determinant holds to 1e-10 even for slow drives.  K grows
# like t, so its error is ~rtol |K| per step, and the Floquet phases take
# the difference rho - tr(KS)/2 of two numbers ~T: at 1e-12 a drive with
# omega = 0.5 loses 1.9e-10 in lambda_G_R(n=3), at 3e-13 5.6e-11
_MATRIX_OPTS = IntegratorOptions(rtol=3e-13, atol=3e-13)


def compute_monodromy(sched: ParameterSchedule,
                      n_samples: int = None) -> Monodromy:
    """One pass over the period: integrate M(t) and K(t), extract
    (sigma, k, rho) and the normal frame W.

    The steps are chosen by error control alone and land on T only; with
    n_samples, M(t) is returned on the n_samples + 1 uniform times of
    [0, T], interior ones by the continuous extension of the step that
    covers them.  M(T), K, sigma, rho and W are therefore the same, bit
    for bit, for every n_samples.  The winding k comes from unwrapping
    the normal-frame angle of one solution column over the accepted steps
    (each increment must stay under pi/2), then rounding
    (total - sigma)/(2*pi).
    """
    T = sched.period
    grid = None if n_samples is None else np.linspace(0.0, T, n_samples + 1)
    y0 = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    ts, ys, dense = integrate_ode(
        _period_rhs(sched), 0.0, y0, T, _MATRIX_OPTS,
        output_times=None if grid is None else grid[1:-1])
    Ms = ys[:, :4].reshape(-1, 2, 2)
    M = Ms[-1]
    det = float(np.linalg.det(M))
    if abs(det - 1.0) > 1e-8:
        raise NonEllipticError(
            f"monodromy determinant {det} deviates from 1; integration failed")

    W, sigma = normal_frame(M)
    x0 = W @ np.array([0.0, 1.0])  # normal-form angle zero
    qp = (Ms @ x0) @ np.linalg.inv(W).T
    theta = np.unwrap(np.arctan2(qp[:, 0], qp[:, 1]))
    step = float(np.abs(np.diff(theta)).max())
    if step >= 0.5 * math.pi:
        raise IntegrationError(
            f"normal-frame angle moved {step:.3f} rad in one step; "
            "windings cannot be counted", last_t=T)
    total = float(theta[-1] - theta[0])
    winding = int(round((total - sigma) / (2.0 * math.pi)))
    rho = 2.0 * math.pi * winding + sigma
    if abs(rho - total) > 0.5:
        raise IntegrationError(
            f"winding tracking inconsistent: unwrapped {total}, "
            f"normal-form sigma {sigma}", last_t=T)
    path = None
    if grid is not None:
        path = np.vstack([ys[:1], dense, ys[-1:]])[:, :4].reshape(-1, 2, 2)
    k11, k12, k22 = ys[-1, 4:]
    return Monodromy(M=M, sigma=sigma, winding=winding, rho=rho, period=T,
                     W=W, K=np.array([[k11, k12], [k12, k22]]),
                     t=grid, path=path)


def normal_frame(M):
    """Normal frame W and rotation sigma in [0, 2*pi) of an elliptic M.

    With d = (M11 - M22)/2 the identity M = cos(sigma) I + sin(sigma) S J
    gives s = sin(sigma) = sign(M12) sqrt(-M12 M21 - d^2),
    sigma = atan2(s, tr M / 2) and S = [[M12, -d], [-d, -M21]] / s; W is
    its lower-triangular factor, det W = 1 by construction.  Refused when
    W^-1 M W is not a rotation to 1e-8.
    """
    if np.abs(M - np.eye(2)).max() < _IDENTITY_TOL:
        return np.eye(2), 0.0
    if np.abs(M + np.eye(2)).max() < _IDENTITY_TOL:
        return np.eye(2), math.pi
    (m11, m12), (m21, m22) = M.tolist()
    tr = m11 + m22
    if abs(tr) >= 2.0:
        raise NonEllipticError(f"|tr M| = {abs(tr):.6f} >= 2, not elliptic")
    if 2.0 - abs(tr) <= _PARABOLIC_TOL:
        raise NonEllipticError(
            f"2 - |tr M| = {2.0 - abs(tr):.3e}: too close to parabolic, "
            "normal form is degenerate")
    d = 0.5 * (m11 - m22)
    s2 = -m12 * m21 - d * d
    if not s2 > 0.0:
        raise NonEllipticError(
            f"-M12 M21 - d^2 = {s2:.3e} <= 0 although |tr M| < 2: map too "
            "close to parabolic for a normal frame")
    s = math.copysign(math.sqrt(s2), m12)
    sigma = math.atan2(s, 0.5 * tr) % (2.0 * math.pi)
    r = math.sqrt(m12 / s)
    W = np.array([[r, 0.0], [-d / (s * r), 1.0 / r]])
    R = np.linalg.solve(W, M @ W)
    if np.abs(R @ R.T - np.eye(2)).max() > 1e-8:
        raise NonEllipticError(
            "normal form failed orthogonality check; map too close to "
            "parabolic for a reliable frame")
    return W, sigma


def fluctuation_point(S):
    """(G, Pi) of the Gaussian with covariance (hbar/2) S, for one form or
    a stack of them: G = S11/2, Pi = S12/(2 S11)."""
    return 0.5 * S[..., 0, 0], S[..., 0, 1] / (2.0 * S[..., 0, 0])
