"""Linear analysis of the centroid subsystem over one period.

The (q, p) equations are linear, so the time-T flow is a 2x2 symplectic
matrix M (the monodromy).  In the elliptic regime |tr M| < 2 it is
conjugate to a rotation: M = W R(sigma) W^-1 with det W = 1, where R is
the rotation matrix in the angle convention q = sqrt(2I) sin(phi),
p = sqrt(2I) cos(phi).  The continuous rotation number rho = 2*pi*k + sigma
counts full windings of the flow, recovered by unwrapping the angle of a
fundamental solution expressed in the W frame.

W also fixes the unique M-invariant symmetric unimodular form S = W W^T;
the Gaussian state whose covariance is (hbar/2) S returns to itself after
one period, which gives a non-perturbative oracle for the periodic
fluctuation orbit.

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
from .errors import NonEllipticError
from .params import ParameterSchedule

# 2x2 symplectic unit, [q, p] ordering.
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Below this distance from +/- identity the eigenbasis is meaningless and
# the map is treated as the exact rotation by 0 or pi.
_IDENTITY_TOL = 1e-9

# Truly degenerate normal form; refuse rather than return noise.  (The
# ellipticity of the schedule does not prevent the stroboscopic map from
# grazing the parabolic boundary at resonant omega.)
_PARABOLIC_TOL = 1e-12


@dataclass
class Monodromy:
    """Result of the period pass: the time-T flow matrix of the linear
    centroid system, its rotation, and the quadratic-form quadrature.

    S = W W^T is the M-invariant symmetric unimodular form of the normal
    frame and K = int_0^T M^T H M dt with H = [[a, c], [c, b]].  t and
    path hold M(t) on the sample times the pass was asked for.
    """

    M: np.ndarray
    sigma: float      # normal-form rotation in [0, 2*pi)
    winding: int      # full turns completed during one period
    rho: float        # 2*pi*winding + sigma
    period: float
    S: np.ndarray
    K: np.ndarray
    t: np.ndarray = None
    path: np.ndarray = None

    @property
    def tr_KS(self) -> float:
        """tr(K S): for a uniform-angle ensemble on the invariant ellipse
        of action I, the mean of int_0^T H_cl dt is exactly (I/2) tr(K S)."""
        return float(np.sum(self.K * self.S))


@dataclass
class NormalFrame:
    """Symplectic frame W with W^-1 M W a pure rotation."""

    W: np.ndarray
    sigma: float
    period: float


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
# the symplectic determinant holds to 1e-10 even for slow drives
_MATRIX_OPTS = IntegratorOptions(rtol=1e-12, atol=1e-12)


def compute_monodromy(sched: ParameterSchedule,
                      n_samples: int = None) -> Monodromy:
    """One pass over the period: integrate M(t) and K(t), extract
    (sigma, k, rho) and the invariant form S.

    The pass lands on a uniform grid fine enough for winding tracking; it
    is refined to a multiple of n_samples when samples are requested, so
    M(t) is also returned on the n_samples + 1 uniform times of [0, T].
    The winding k comes from unwrapping the normal-frame angle of one
    solution column along the path (each increment stays well under
    pi/2), then rounding (total - sigma)/(2*pi).
    """
    T = sched.period
    # ~64 samples per unit rotation of the unperturbed flow
    n_grid = max(256, int(64 * T / math.pi))
    stride = 1
    if n_samples is not None:
        stride = math.ceil(n_grid / n_samples)
        n_grid = stride * n_samples
    grid = np.linspace(0.0, T, n_grid + 1)
    y0 = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    ts, ys = integrate_ode(_period_rhs(sched), 0.0, y0, T, _MATRIX_OPTS,
                           output_times=grid[1:-1])
    Ms = ys[:, :4].reshape(-1, 2, 2)
    M = Ms[-1]
    det = float(np.linalg.det(M))
    if abs(det - 1.0) > 1e-8:
        raise NonEllipticError(
            f"monodromy determinant {det} deviates from 1; integration failed")
    tr = float(np.trace(M))
    if abs(tr) >= 2.0 and not _near_identity_like(M):
        raise NonEllipticError(
            f"|tr M| = {abs(tr):.6f} >= 2: stroboscopic map is not elliptic")

    W, sigma = _checked_frame(M)
    x0 = W @ np.array([0.0, 1.0])  # normal-form angle zero
    qp = (Ms @ x0) @ np.linalg.inv(W).T
    theta = np.unwrap(np.arctan2(qp[:, 0], qp[:, 1]))
    total = float(theta[-1] - theta[0])
    winding = int(round((total - sigma) / (2.0 * math.pi)))
    rho = 2.0 * math.pi * winding + sigma
    if abs(rho - total) > 0.5:
        raise RuntimeError(
            f"winding tracking inconsistent: unwrapped {total}, "
            f"normal-form sigma {sigma}")
    t = path = None
    if n_samples is not None:
        keep = np.searchsorted(ts, grid[::stride])
        t, path = ts[keep], Ms[keep]
    k11, k12, k22 = ys[-1, 4:]
    return Monodromy(M=M, sigma=sigma, winding=winding, rho=rho, period=T,
                     S=W @ W.T, K=np.array([[k11, k12], [k12, k22]]),
                     t=t, path=path)


def _near_identity_like(M):
    return (np.abs(M - np.eye(2)).max() < _IDENTITY_TOL
            or np.abs(M + np.eye(2)).max() < _IDENTITY_TOL)


def _frame_of(M):
    """Normal frame W and rotation sigma in [0, 2*pi) of an elliptic M."""
    if np.abs(M - np.eye(2)).max() < _IDENTITY_TOL:
        return np.eye(2), 0.0
    if np.abs(M + np.eye(2)).max() < _IDENTITY_TOL:
        return np.eye(2), math.pi
    tr = float(np.trace(M))
    if abs(tr) >= 2.0:
        raise NonEllipticError(f"|tr M| = {abs(tr):.6f} >= 2, not elliptic")
    if 2.0 - abs(tr) <= _PARABOLIC_TOL:
        raise NonEllipticError(
            f"2 - |tr M| = {2.0 - abs(tr):.3e}: too close to parabolic, "
            "normal form is degenerate")

    evals, evecs = np.linalg.eig(M)
    W = None
    for i in range(2):
        v = evecs[:, i]
        u, w = v.real, v.imag
        if float(u @ _J @ w) > 0.0:
            # orientation matches the flow convention
            lam = evals[i]
            # fix the eigenvector phase: leading component real positive
            pivot = v[0] if abs(v[0]) > 1e-12 else v[1]
            v = v * np.exp(-1j * np.angle(pivot))
            u, w = v.real, v.imag
            v = v / math.sqrt(float(u @ _J @ w))
            u, w = v.real, v.imag
            W = np.column_stack([u, w])
            sigma = float(np.angle(lam)) % (2.0 * math.pi)
            break
    if W is None:
        raise NonEllipticError("no positively oriented eigenvector found")
    # enforce det W = 1 exactly against roundoff
    W = W / math.sqrt(float(np.linalg.det(W)))
    return W, sigma


def _checked_frame(M):
    """_frame_of, refused when W^-1 M W is not a rotation to 1e-8."""
    W, sigma = _frame_of(M)
    R = np.linalg.solve(W, M @ W)
    if np.abs(R @ R.T - np.eye(2)).max() > 1e-8:
        raise NonEllipticError(
            "normal form failed orthogonality check; map too close to "
            "parabolic for a reliable frame")
    return W, sigma


def normal_form(mono: Monodromy) -> NormalFrame:
    """Symplectic frame in which the monodromy is the rotation by sigma."""
    W, sigma = _checked_frame(mono.M)
    return NormalFrame(W=W, sigma=sigma, period=mono.period)


def periodic_gaussian_oracle(frame: NormalFrame):
    """Initial (G0, Pi0) of the exactly T-periodic fluctuation orbit.

    S = W W^T is the unique M-invariant positive symmetric unimodular form;
    the Gaussian covariance (hbar/2) S is therefore fixed by the return map,
    and G0 = S11/2, Pi0 = S12/(2 S11) translates it to fluctuation
    coordinates.  Exact at any drive strength, independent of hbar.
    """
    S = frame.W @ frame.W.T
    G0 = S[0, 0] / 2.0
    Pi0 = S[0, 1] / (2.0 * S[0, 0])
    return float(G0), float(Pi0)
