"""Linear analysis of the centroid subsystem over one period.

The (q, p) equations are linear, so the time-T flow is a 2x2 symplectic
matrix M (the monodromy).  In the elliptic regime |tr M| < 2 it is the
exact identity M = cos(sigma) I + sin(sigma) S J, J = [[0, 1], [-1, 0]],
with S the unique M-invariant symmetric unimodular positive form; S and
sigma are read off the entries of M in closed form, and any W with
S = W W^T, det W = 1 conjugates M to the rotation R(sigma) in the angle
convention q = sqrt(2I) sin(phi), p = sqrt(2I) cos(phi).

The Gaussian state whose covariance is (hbar/2) S returns to itself after
one period, so fluctuation_point(mono.S) is the initial point (G0, Pi0) of
the periodic fluctuation orbit, exact at any drive strength and
independent of hbar.

period_pass is the one period pass of the package.  Beside M(t) it
integrates K(t) = int_t0^t M^T H M dt, H = [[a, c], [c, b]], so that
int x^T H x dt = x0^T K x0 along any centroid solution, and it lifts
the angle alpha of the first row r of M(t) over its steps.  The row
turns one way: r' = c r + b r2 (r2 the second row), so
alpha' = b det M / |r|^2 = b / |r|^2, and b keeps its sign where
a b > c^2.  A step's increment on the nearest branch stands when under
pi/2; a larger one is read in the direction of b (_full_turns), however
fast the row turns where |r| is small.
compute_monodromy reads M = M(T), the normal frame W, sigma and the
continuous rotation number rho = 2*pi*k + sigma off the pass from t = 0,
the winding k from the lift of alpha.  The orbit, the trajectory Hannay
angle, every Floquet phase and the linear route of dynamics.integrate are
derived from that pass without integrating anything else.

The pass is s = 5 stage Gauss-Legendre collocation (order 2s = 10) on N
equal steps.  The system x' = A(t) x, A = J H, is linear, so a Gauss step
maps M(t_k) to P_k M(t_k) with a step matrix P_k that does not depend on
the state: the stage equations Z_i = I + h sum_j a_ij A_j Z_j of all N
steps are one batched linear solve, fed by one ParameterSchedule.sample
call at all N s nodes.  The same stage solutions give the step's share of
K, M_k^T Q_k M_k with Q_k = h sum_i b_i Z_i^T H_i Z_i, at the same order.
Only the 2x2 prefix product M_(k+1) = P_k M_k is sequential.  Gauss
methods are symplectic, so det M = 1 holds to roundoff (Hairer, Lubich &
Wanner, Geometric Numerical Integration, IV.2 and VI.4).  The same pass
on 2N steps is the error estimate, and its rows, lifted the same way,
must turn as far within pi.

PeriodPass.sample is the one sampler of M(t), K(t) and the turn of the
first row of M(t) W: a time inside a step is one partial Gauss step from
its start, and a time in a later period takes the powers of M(T).  The
samples take no part in the pass, so they never move M(T), K, rho or W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NonEllipticError
from .params import STANDARD, ParameterSchedule

# Below this distance from +/- identity the frame is meaningless and the
# map is treated as the exact rotation by 0 or pi.
_IDENTITY_TOL = 1e-9

# Truly degenerate normal form; refuse rather than return noise.  (The
# ellipticity of the schedule does not prevent the stroboscopic map from
# grazing the parabolic boundary at resonant omega.)
_PARABOLIC_TOL = 1e-12

# Step rule: h (2 B + 2 pi H / T) <= _STEP_RATE, with B a bound on |a|,
# |b| and |c| over the period and H the highest harmonic.  At order 10 it
# leaves the truncation error under roundoff.
_STEP_RATE = 0.5

# Largest accepted disagreement of the N and 2N passes, in M relative to
# max(1, max |M|) and in K relative to max(1, max |K|).
_ESTIMATE_BOUND = 1e-11

# Samples of the pass are taken this many at a time, which bounds the
# memory of their batched partial steps whatever the sample count.
_SAMPLE_CHUNK = 256


def _gauss_legendre():
    """Nodes c, weights b and collocation matrix a of the 5-stage Gauss
    method on [0, 1].

    c and b map the closed-form roots of the Legendre polynomial P_5 and
    their weights from [-1, 1]; a_ij = int_0^c_i l_j for the Lagrange
    basis l_j on c, integrated exactly (l_j has degree 4) by the same
    rule on [0, c_i].
    """
    r = 2.0 * math.sqrt(10.0 / 7.0)
    x_in, x_out = math.sqrt(5.0 - r) / 3.0, math.sqrt(5.0 + r) / 3.0
    d = 13.0 * math.sqrt(70.0)
    w_in, w_out = (322.0 + d) / 900.0, (322.0 - d) / 900.0
    x = np.array([-x_out, -x_in, 0.0, x_in, x_out])
    c = 0.5 * (1.0 + x)
    b = 0.5 * np.array([w_out, w_in, 128.0 / 225.0, w_in, w_out])
    off = ~np.eye(5, dtype=bool)                       # (j, m), m != j
    nodes = c[:, None] * c                             # (i, k)
    num = np.where(off, nodes[..., None, None] - c, 1.0).prod(axis=-1)
    den = np.where(off, c[:, None] - c, 1.0).prod(axis=-1)
    a = c[:, None] * np.einsum("k,ikj->ij", b, num / den)
    return c, b, a


_GL_C, _GL_B, _GL_A = _gauss_legendre()
_STAGES = _GL_C.size


@dataclass
class Monodromy:
    """The period pass from t = 0 read as the time-T flow matrix M of the
    linear centroid system, its rotation, and the quadratic-form
    quadrature.

    W is the normal frame (W^-1 M W = R(sigma), det W = 1) and
    K = int_0^T M^T H M dt with H = [[a, c], [c, b]].  steps is the number
    N of Gauss steps and estimate the disagreement of the N and 2N passes
    (relative, see period_pass); flow is the pass itself, whose sample
    gives M(t) and K(t) at any time.
    """

    M: np.ndarray
    sigma: float      # normal-form rotation in [0, 2*pi)
    winding: int      # full turns completed during one period
    rho: float        # 2*pi*winding + sigma
    period: float
    W: np.ndarray
    K: np.ndarray
    steps: int
    estimate: float
    flow: PeriodPass

    @property
    def S(self) -> np.ndarray:
        """The M-invariant symmetric unimodular form W W^T."""
        return self.W @ self.W.T

    @property
    def tr_KS(self) -> float:
        """tr(K S): for a uniform-angle ensemble on the invariant ellipse
        of action I, the mean of int_0^T H_cl dt is exactly (I/2) tr(K S)."""
        return float(np.sum(self.K * self.S))


def _step_count(sched: ParameterSchedule) -> int:
    """N of the step rule: the smallest N with
    (T/N) (2 B + 2 pi H / T) <= _STEP_RATE."""
    if sched.kind == STANDARD:
        bound, harmonics = 1.0 + sched.epsilon, 1
    else:
        coeffs = (sched.a_coeffs, sched.b_coeffs, sched.c_coeffs)
        bound = max(sum(abs(c) + abs(s) for c, s in pairs)
                    for pairs in coeffs)
        harmonics = max(len(pairs) for pairs in coeffs) - 1
    rate = 2.0 * bound * sched.period + 2.0 * math.pi * harmonics
    return max(1, math.ceil(rate / _STEP_RATE))


def _gauss_steps(sched: ParameterSchedule, t0, h):
    """Step matrices P and quadrature matrices Q of Gauss steps of sizes h
    from the times t0 (arrays of one length n).

    P maps M(t0) to M(t0 + h), and the step adds M(t0)^T Q M(t0) to K.
    """
    n, s = t0.size, _STAGES
    a, b, c = sched.sample(t0[:, None] + h[:, None] * _GL_C)   # (n, s)
    # block (i, j) of the stage equations Z_i - h sum_j a_ij A_j Z_j = I
    # is delta_ij I - h a_ij A_j, A = J H = [[c, b], [-a, -c]]; hA is
    # indexed (step, row, stage, column)
    ha, hb, hc = (h[:, None] * v for v in (a, b, c))
    hA = np.stack([np.stack([hc, hb], -1), np.stack([-ha, -hc], -1)], 1)
    L = np.eye(2 * s) - (hA[:, None] * _GL_A[:, None, :, None]).reshape(
        n, 2 * s, 2 * s)
    # the right-hand side has the shape of the solution, which every
    # numpy version reads as a stack of matrices
    ones = np.broadcast_to(np.tile(np.eye(2), (s, 1)), (n, 2 * s, 2))
    Z = np.linalg.solve(L, ones).reshape(n, s, 2, 2)
    # rows of A_i Z_i from the rows Z0, Z1 of Z_i; H_i Z_i = J^T A_i Z_i
    # has the rows (-F1, F0)
    Z0, Z1 = Z[:, :, 0], Z[:, :, 1]
    a, b, c = a[..., None], b[..., None], c[..., None]
    F0, F1 = c * Z0 + b * Z1, -(a * Z0 + c * Z1)
    w = h[:, None] * _GL_B                              # (n, s)
    P = np.eye(2) + np.einsum("ni,nipq->npq", w, np.stack([F0, F1], 2))
    Q = np.einsum("nipq,nipr->nqr", Z * w[..., None, None],
                  np.stack([-F1, F0], 2))
    return P, Q


def _gauss_pass(sched: ParameterSchedule, N: int, t0: float = 0.0):
    """M(t_k) and K(t_k) at the N + 1 step times t_k = t0 + k T/N of the
    flow from t0: K(t_k) is the prefix sum of the step shares
    M_j^T Q_j M_j, j < k."""
    h = sched.period / N
    P, Q = _gauss_steps(sched, t0 + h * np.arange(N), np.full(N, h))
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    prefix = [(m11, m12, m21, m22)]
    for (p11, p12), (p21, p22) in P.tolist():
        m11, m12, m21, m22 = (p11 * m11 + p12 * m21, p11 * m12 + p12 * m22,
                              p21 * m11 + p22 * m21, p21 * m12 + p22 * m22)
        prefix.append((m11, m12, m21, m22))
    Ms = np.array(prefix).reshape(N + 1, 2, 2)
    shares = np.einsum("kpq,kpr->kqr", Ms[:-1], Q @ Ms[:-1])
    return Ms, np.concatenate([np.zeros((1, 2, 2)),
                               np.cumsum(shares, axis=0)])


def _row_angle(M):
    """Angle of the first row (M11, M12) of each matrix of a stack."""
    return np.arctan2(M[..., 0, 1], M[..., 0, 0])


def _wrap(angle):
    """angle reduced into [-pi, pi)."""
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def _full_turns(turn, sched, t0):
    """The full turns that row-angle increments turn of a pass of sched
    from t0 lack when read on the nearest branch: 2 pi in the direction
    of b where turn runs against it by pi/2 or more, else 0 (module doc)."""
    full = math.copysign(2.0 * math.pi, float(sched.sample(t0)[1]))
    return np.where((np.abs(turn) >= 0.5 * math.pi) & (turn * full < 0.0),
                    full, 0.0)


@dataclass
class FlowSample:
    """M(t) and K(t) = int_t0^t M^T H M dt of the centroid flow from t0 at
    the times t, and the angle the first row of M(t) W has turned since
    t0, for the frame W PeriodPass.sample was given.
    """

    t: np.ndarray
    M: np.ndarray
    K: np.ndarray
    angle: np.ndarray


@dataclass
class PeriodPass:
    """The Gauss pass over [t0, t0 + T] (period_pass): M and K at the
    N + 1 step times t0 + k T/N, the angle alpha of the first row of M
    there, lifted from 0 at t0, and the disagreement estimate of the N
    and 2N passes."""

    sched: ParameterSchedule
    t0: float
    Ms: np.ndarray
    Ks: np.ndarray
    alpha: np.ndarray
    estimate: float

    @property
    def steps(self) -> int:
        return self.Ms.shape[0] - 1

    def _partial(self, step, offset):
        """M and K at the times t0 + step h + offset, h = T/N, step in
        [0, N): a nonzero offset is one Gauss step of that size from the
        step time, which maps M and adds M^T Q M to K.  The partial steps
        are taken _SAMPLE_CHUNK at a time."""
        h = self.sched.period / self.steps
        M, K = self.Ms[step], self.Ks[step]
        inside = np.flatnonzero(offset)
        for i in range(0, inside.size, _SAMPLE_CHUNK):
            j = inside[i:i + _SAMPLE_CHUNK]
            P, Q = _gauss_steps(self.sched, self.t0 + h * step[j], offset[j])
            K[j] += np.einsum("npq,npr->nqr", M[j], Q @ M[j])
            M[j] = P @ M[j]
        return M, K

    def sample(self, t1: float, times, W) -> FlowSample:
        """M(t), K(t) and the turn of the first row of M(t) W of the flow
        from t0, at t0, the times and t1.

        times must lie strictly inside (t0, t1) and increase; when times
        is None the samples are t0, every Gauss node strictly inside
        (t0, t1), and t1.  The pass gives M(tau) and K(tau) at
        tau = t - t0 - kT inside the period (_partial), and since the
        schedule is T-periodic, with M_T = M(T):

            M(t) = M(tau) M_T^k,
            K(t) = sum_{m<k} (M_T^m)^T K(T) M_T^m + (M_T^k)^T K(tau) M_T^k.

        The angle of a sample's first row m of M(tau) is alpha at the
        start of its step plus the increment of its partial step, read
        as period_pass reads those of its steps (_full_turns).
        The first row of M(t) W is m B_k with B_k = M_T^k W.  A map of
        determinant 1 keeps the order of directions and turns each by
        less than pi from the angle c_k it gives the first unit row
        (1, 0), so the angle of m B_k lifts to
        alpha + c_k + wrap(angle(m B_k) - alpha - c_k) exactly, however
        far the flow squeezes; period k turns by that lift at alpha(T),
        less c_k.  There is no normal frame: a hyperbolic period map (a
        schedule inside a resonance tongue) is sampled like any other.
        """
        t0, alpha, T, N = self.t0, self.alpha, self.sched.period, self.steps
        h = T / N
        if times is None:
            times = t0 + h * np.arange(1, math.ceil((t1 - t0) / h))
            times = times[times < t1]
        t = np.concatenate([[t0], times, [t1]]).astype(float)
        s = t - t0
        period = np.maximum(np.floor(s / T), 0.0).astype(int)
        tau = s - period * T
        step = np.clip(np.floor(tau / h), 0, N - 1).astype(int)
        M_tau, K_tau = self._partial(step, tau - step * h)
        # M_T^k and the sums of K over k whole periods, k = 0 .. max
        powers, sums = [np.eye(2)], [np.zeros((2, 2))]
        for _ in range(int(period.max())):
            P = powers[-1]
            sums.append(sums[-1] + P.T @ self.Ks[-1] @ P)
            powers.append(P @ self.Ms[-1])
        powers = np.array(powers)
        B = powers[period]
        M = M_tau @ B

        turn = _wrap(_row_angle(M_tau) - alpha[step])
        a = alpha[step] + turn + _full_turns(turn, self.sched, t0)
        c = _row_angle(powers @ W)
        turns = alpha[-1] + _wrap(c[1:] - alpha[-1] - c[:-1])
        before = np.concatenate([[0.0], np.cumsum(turns)])[period]
        angle = before + a + _wrap(_row_angle(M @ W) - a - c[period])
        return FlowSample(
            t=t, M=M, K=np.array(sums)[period] + np.transpose(B, (0, 2, 1))
            @ K_tau @ B, angle=angle)


def period_pass(sched: ParameterSchedule, t0: float = 0.0) -> PeriodPass:
    """The Gauss pass over [t0, t0 + T] on N steps, N set by the schedule
    alone (_step_count).

    The angle alpha of the first row of M is lifted over the N steps:
    np.unwrap's nearest branches plus the full turns they lack
    (_full_turns).  The same pass on 2N steps follows and is lifted too:
    ConvergenceError is raised when the two turn the row by pi or
    more apart, which a step that hides a turn does, and when estimate,
    the larger of max |M_2N - M_N| / max(1, max |M_N|) at t0 + T and the
    same for K, is past _ESTIMATE_BOUND.
    """
    N = _step_count(sched)
    Ms, Ks = _gauss_pass(sched, N, t0)
    Ms2, Ks2 = _gauss_pass(sched, 2 * N, t0)
    alpha, alpha2 = np.unwrap(_row_angle(Ms)), np.unwrap(_row_angle(Ms2))
    for lift in (alpha, alpha2):
        lift[1:] += np.cumsum(_full_turns(np.diff(lift), sched, t0))
    turn, turn2 = alpha[-1], alpha2[-1]
    if not abs(turn2 - turn) < math.pi:
        raise ConvergenceError(
            f"period pass on N = {N} steps and on 2N = {2 * N} steps turn "
            f"the first row of M by {turn:.6g} and {turn2:.6g} rad: the "
            "turns of a step cannot be counted")
    estimate = max(
        float(np.abs(x2[-1] - x[-1]).max()) / max(1.0, float(
            np.abs(x[-1]).max())) for x, x2 in ((Ms, Ms2), (Ks, Ks2)))
    if not estimate <= _ESTIMATE_BOUND:
        raise ConvergenceError(
            f"period pass on N = {N} steps and on 2N = {2 * N} steps "
            f"disagree by {estimate:.3e} (relative), over the bound "
            f"{_ESTIMATE_BOUND:.0e}")
    return PeriodPass(sched=sched, t0=t0, Ms=Ms, Ks=Ks, alpha=alpha,
                      estimate=estimate)


def compute_monodromy(sched: ParameterSchedule) -> Monodromy:
    """The period pass from t = 0 (period_pass), then (sigma, k, rho) and
    the normal frame W of M = M(T).

    The winding k comes from the lift the pass already has.  W is lower
    triangular with W11 > 0, so the first row of M(t) W starts along
    (1, 0) and, as in PeriodPass.sample, its angle lifts to
    alpha + wrap(angle(m W) - alpha) for the first row m of M(t).  Since
    M W = W R(sigma), at T it points along (cos sigma, sin sigma): the
    turn alpha_N + wrap(angle(first row of M W) - alpha_N) is
    2 pi k + sigma, and k is the rounded (turn - sigma)/(2 pi).
    """
    flow = period_pass(sched)
    M = flow.Ms[-1]
    det = float(np.linalg.det(M))
    if abs(det - 1.0) > 1e-8:
        raise NonEllipticError(
            f"monodromy determinant {det} deviates from 1; integration failed")

    W, sigma = normal_frame(M)
    alpha = flow.alpha[-1]
    turn = alpha + _wrap(_row_angle(M @ W) - alpha)
    winding = int(round((turn - sigma) / (2.0 * math.pi)))
    return Monodromy(M=M, sigma=sigma, winding=winding,
                     rho=2.0 * math.pi * winding + sigma, period=sched.period,
                     W=W, K=flow.Ks[-1], steps=flow.steps,
                     estimate=flow.estimate, flow=flow)


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
