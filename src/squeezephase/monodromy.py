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
the angle alpha of the first row r of M(t) over its steps: r' = c r + b r2
(r2 the second row), so alpha' = b det M / |r|^2 = b / |r|^2.  Every
step of a pass period_pass returns is certified to turn the row by less
than pi (below), so the nearest branch reads its increment, and that of
any partial step inside it, exactly.
compute_monodromy reads M = M(T), the normal frame W, sigma and the
continuous rotation number rho = 2*pi*k + sigma off the pass from t = 0,
the winding k from the lift of alpha.  The orbit, the trajectory Hannay
angle, every Floquet phase and the linear route of dynamics.integrate are
derived from that pass without integrating anything else.

The pass is s = 5 stage Gauss-Legendre collocation (order 2s = 10) on N
equal steps.  The system x' = A(t) x, A = J H, is linear, so a Gauss step
maps M(t_k) to P_k M(t_k) with a step matrix P_k that does not depend on
the state: the stage equations Z_i = I + h sum_j a_ij A_j Z_j of all N
steps, and of the ceil(N/2) steps of its estimate (below), are one
batched linear solve, fed by one ParameterSchedule.sample call at all
their nodes; no step's P_k depends on the other steps of the solve.
The same stage solutions give the step's share of K, M_k^T Q_k M_k with
Q_k = h sum_i b_i Z_i^T H_i Z_i, at the same order.
Only the 2x2 prefix product M_(k+1) = P_k M_k is sequential.  Gauss
methods are symplectic, so det M = 1 holds to roundoff (Hairer, Lubich &
Wanner, Geometric Numerical Integration, IV.2 and VI.4).

The lift is certified from the pass itself.  With B_a, B_b and B_c the
bounds on |a|, |b| and |c| over the period (_bound), Gershgorin bounds
|A|_2 = |H|_2 (J is orthogonal) by L = max(B_a, B_b) + B_c; with h = T/N
and e = expm1(h L) < 1, Gronwall bounds the flow P over a step by
|P - I|_2 <= e, and det M = 1 gives sigma_min(M) >= 1/|M|_F.  So on step
k the first row has |r| >= rho_k = max over its two ends j of
max(|r_j| - e |M_j|_F, (1 - e)/|M_j|_F), and the step turns it by at
most bound_k = h B_b / rho_k^2.

The N pass is accepted where N >= 2, every bound_k is under pi and the
pass on ceil(N/2) steps, solved with it, agrees with it within
_ESTIMATE_BOUND.  Otherwise the pass on m N steps is taken, with
m = max(2, floor(max_k bound_k / pi) + 1): each of its steps lies inside
a step k of the N pass and turns the row by at most bound_k / m < pi, and
the N pass is its estimate.  A pass without a certificate (e >= 1), one
whose m N is over _MAX_PASS_STEPS, and a refined pass past
_ESTIMATE_BOUND are refused with ConvergenceError, so nothing
uncertified is lifted.

Inside shared_passes(), period_pass computes each distinct (schedule,
t0) once and hands every later caller the same PeriodPass: the built-in
checks read seven passes through many consumers.  Nothing is kept after
the block closes.  The arrays of a pass are read-only, shared or not.

PeriodPass.sample is the one sampler of M(t), K(t) and the turn of the
first row of M(t) W: an in-period offset inside a step is one partial
Gauss step from its start, taken once however many periods repeat the
offset, and a time in a later period takes the powers of M(T).  The
samples take no part in the pass, so they never move M(T), K, rho or W.
"""

from __future__ import annotations

import contextlib
import contextvars
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

# Largest accepted disagreement of a pass and its estimate (period_pass),
# in M relative to max(1, max |M|) and in K relative to max(1, max |K|).
_ESTIMATE_BOUND = 1e-11

# Most steps a refined pass may take: its one kernel call holds ~1.6 KB a
# step at its peak, so ~53 MB here.
_MAX_PASS_STEPS = 2 ** 15

# Samples of the pass are taken this many at a time, which bounds the
# memory of their batched partial steps whatever the sample count.
_SAMPLE_CHUNK = 256

# In-period offsets closer than this fraction of T share one partial
# step: 2^8 ulps of T, over the rounding of t - t0 - k T within the first
# ~2^7 periods, and far finer than any sample spacing.
_OFFSET_RESOLUTION = 2.0 ** -44

# (schedule, t0) -> PeriodPass while a shared_passes() block is open
_SHARED = contextvars.ContextVar("shared_passes", default=None)


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
# -a_ij, which gives the products (-x) a_ij as x (-a_ij), bit for bit
_NEG_GL_A = -_GL_A
# the right-hand side (I, ..., I) of the stage equations of one step
_STAGE_RHS = np.tile(np.eye(2), (_STAGES, 1))


@dataclass
class Monodromy:
    """The period pass from t = 0 read as the time-T flow matrix M of the
    linear centroid system, its rotation, and the quadratic-form
    quadrature.

    W is the normal frame (W^-1 M W = R(sigma), det W = 1) and
    K = int_0^T M^T H M dt with H = [[a, c], [c, b]].  steps is the number
    of Gauss steps of the pass and estimate its disagreement with its
    estimate (relative, see period_pass); flow is the pass itself, whose
    sample gives M(t) and K(t) at any time.
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


def _bound(sched: ParameterSchedule):
    """(B_a, B_b, B_c), bounds on |a|, |b| and |c| over the period, and
    the highest harmonic H."""
    if sched.kind == STANDARD:
        return (1.0 + sched.epsilon,) * 2 + (sched.epsilon,), 1
    coeffs = (sched.a_coeffs, sched.b_coeffs, sched.c_coeffs)
    return (tuple(sum(abs(c) + abs(s) for c, s in pairs) for pairs in coeffs),
            max(len(pairs) for pairs in coeffs) - 1)


def _step_count(sched: ParameterSchedule) -> int:
    """N of the step rule: the smallest N with
    (T/N) (2 B + 2 pi H / T) <= _STEP_RATE, B = max(B_a, B_b, B_c)."""
    bounds, harmonics = _bound(sched)
    rate = 2.0 * max(bounds) * sched.period + 2.0 * math.pi * harmonics
    return max(1, math.ceil(rate / _STEP_RATE))


def _turn_bounds(sched: ParameterSchedule, Ms):
    """Bounds on the turn of the first row of M over each step of a pass
    with M = Ms at its step times (module doc); inf without a certificate."""
    (B_a, B_b, B_c), _ = _bound(sched)
    h = sched.period / (Ms.shape[0] - 1)
    e = math.expm1(h * (max(B_a, B_b) + B_c))
    if not e < 1.0:
        return np.full(Ms.shape[0] - 1, math.inf)
    norm = np.sqrt(np.einsum("kpq,kpq->k", Ms, Ms))
    rho = np.maximum(np.hypot(Ms[:, 0, 0], Ms[:, 0, 1]) - e * norm,
                     (1.0 - e) / norm)
    return h * B_b / np.maximum(rho[:-1], rho[1:]) ** 2


def _gauss_steps(sched: ParameterSchedule, t0, h):
    """Step matrices P and quadrature matrices Q of Gauss steps of sizes h
    from the times t0 (arrays of one length n).

    P maps M(t0) to M(t0 + h), and the step adds M(t0)^T Q M(t0) to K.
    Each step's P and Q are the same bit for bit whatever other steps
    share the call.
    """
    n, s = t0.size, _STAGES
    a, b, c = sched.sample(t0[:, None] + h[:, None] * _GL_C)
    # everything below is indexed with the step last, so that every
    # operation runs over the n steps at once
    a, b, c = (np.ascontiguousarray(v.T) for v in (a, b, c))    # (s, n)
    # block (i, j) of the stage equations Z_i - h sum_j a_ij A_j Z_j = I
    # is delta_ij I - h a_ij A_j, A = J H = [[c, b], [-a, -c]]; L is
    # indexed (stage i, row, stage j, column, step)
    L = np.empty((s, 2, s, 2, n))
    hc = h * c
    np.multiply(_NEG_GL_A[..., None], hc, out=L[:, 0, :, 0])
    np.multiply(_NEG_GL_A[..., None], h * b, out=L[:, 0, :, 1])
    np.multiply(_GL_A[..., None], h * a, out=L[:, 1, :, 0])
    np.multiply(_GL_A[..., None], hc, out=L[:, 1, :, 1])
    L = L.reshape(2 * s, 2 * s, n)
    L.reshape(4 * s * s, n)[::2 * s + 1] += 1.0         # delta_ij I
    # the right-hand side has the shape of the solution, which every
    # numpy version reads as a stack of matrices
    Z = np.linalg.solve(L.transpose(2, 0, 1),
                        np.broadcast_to(_STAGE_RHS, (n, 2 * s, 2)))
    Z = np.ascontiguousarray(Z.reshape(n, s, 2, 2).transpose(1, 2, 3, 0))
    # the rows F0, F1 of F_i = A_i Z_i, and H_i Z_i = J^T F_i with the
    # rows (-F1, F0), from the rows Z0, Z1 of Z_i
    a, b, c = a[:, None], b[:, None], c[:, None]
    F, HZ = np.empty((s, 2, 2, n)), np.empty((s, 2, 2, n))
    np.multiply(c, Z[:, 0], out=F[:, 0])
    F[:, 0] += b * Z[:, 1]
    np.multiply(a, Z[:, 0], out=HZ[:, 0])
    HZ[:, 0] += c * Z[:, 1]
    np.negative(HZ[:, 0], out=F[:, 1])
    HZ[:, 1] = F[:, 0]
    w = np.multiply.outer(_GL_B, h)                      # (s, n)
    P = np.eye(2) + np.einsum("in,ipqn->npq", w, F, order="C")
    # with the steps last in its output too, Q's contraction runs over
    # them in its inner loop
    Q = np.einsum("ipqn,iprn->qrn", Z * w[:, None, None], HZ)
    return P, np.ascontiguousarray(Q.transpose(2, 0, 1))


def _prefix(P, Q):
    """M(t_k) and K(t_k), k = 0 .. N, of a pass from its N step matrices P
    and quadrature matrices Q: M(t_(k+1)) = P_k M(t_k), and K(t_k) is the
    prefix sum of the step shares M_j^T Q_j M_j, j < k."""
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    prefix = [(m11, m12, m21, m22)]
    for (p11, p12), (p21, p22) in P.tolist():
        m11, m12, m21, m22 = (p11 * m11 + p12 * m21, p11 * m12 + p12 * m22,
                              p21 * m11 + p22 * m21, p21 * m12 + p22 * m22)
        prefix.append((m11, m12, m21, m22))
    Ms = np.array(prefix).reshape(-1, 2, 2)
    shares = np.einsum("kpq,kpr->kqr", Ms[:-1], Q @ Ms[:-1])
    return Ms, np.concatenate([np.zeros((1, 2, 2)),
                               np.cumsum(shares, axis=0)])


def _gauss_passes(sched: ParameterSchedule, counts, t0: float = 0.0):
    """(Ms, Ks) of the pass from t0 on each step count N of counts: M(t_k)
    and K(t_k) at its N + 1 step times t_k = t0 + k T/N (_prefix).  The
    steps of all the passes are one _gauss_steps call."""
    sizes = [sched.period / N for N in counts]
    P, Q = _gauss_steps(
        sched, np.concatenate([t0 + h * np.arange(N)
                               for N, h in zip(counts, sizes)]),
        np.repeat(sizes, counts))
    ends = np.cumsum(counts)
    return [_prefix(P[end - N:end], Q[end - N:end])
            for N, end in zip(counts, ends)]


def _row_angle(M):
    """Angle of the first row (M11, M12) of each matrix of a stack."""
    return np.arctan2(M[..., 0, 1], M[..., 0, 0])


def _wrap(angle):
    """angle reduced into [-pi, pi)."""
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def _disagreement(Ms, Ks, Ms2, Ks2):
    """max |M' - M| / max(1, max |M|) at the end of two passes, or the
    same for K if larger."""
    return max(float(np.abs(x2[-1] - x[-1]).max()) / max(
        1.0, float(np.abs(x[-1]).max())) for x, x2 in ((Ms, Ms2), (Ks, Ks2)))


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
    there, lifted from 0 at t0, the disagreement estimate of the pass and
    its estimate, and turn_bound, the largest bound of the turn
    certificate on the turn of a step, under pi."""

    sched: ParameterSchedule
    t0: float
    Ms: np.ndarray
    Ks: np.ndarray
    alpha: np.ndarray
    estimate: float
    turn_bound: float

    @property
    def steps(self) -> int:
        return self.Ms.shape[0] - 1

    def _partial(self, tau):
        """M and K at the in-period offsets tau in [0, T), and the lifted
        angle of the first row of M there.

        With h = T/N and the step k = floor(tau / h), a nonzero
        tau - k h is one Gauss step of that size from the step time,
        which maps M and adds M^T Q M to K; the partial steps are taken
        _SAMPLE_CHUNK at a time.  The angle is alpha at the step time
        plus the increment of the partial step on the nearest branch,
        exact inside a certified step."""
        N = self.steps
        h = self.sched.period / N
        step = np.clip(np.floor(tau / h), 0, N - 1).astype(int)
        offset = tau - step * h
        M, K = self.Ms[step], self.Ks[step]
        inside = np.flatnonzero(offset)
        for i in range(0, inside.size, _SAMPLE_CHUNK):
            j = inside[i:i + _SAMPLE_CHUNK]
            P, Q = _gauss_steps(self.sched, self.t0 + h * step[j], offset[j])
            K[j] += np.einsum("npq,npr->nqr", M[j], Q @ M[j])
            M[j] = P @ M[j]
        start = self.alpha[step]
        return M, K, start + _wrap(_row_angle(M) - start)

    def sample(self, t1: float, times, W) -> FlowSample:
        """M(t), K(t) and the turn of the first row of M(t) W of the flow
        from t0, at t0, the times and t1.

        times, a 1-D array that may be empty, must lie strictly inside
        (t0, t1) and increase.  The pass gives M(tau) and K(tau) at
        tau = t - t0 - kT inside the period (_partial), and since the
        schedule is T-periodic, with M_T = M(T):

            M(t) = M(tau) M_T^k,
            K(t) = sum_{m<k} (M_T^m)^T K(T) M_T^m + (M_T^k)^T K(tau) M_T^k.

        Samples whose offsets differ only by the rounding of tau (a
        uniform grid commensurate with T repeats its offsets in every
        period) share one partial step: sorted offsets no farther apart
        than _OFFSET_RESOLUTION T form a group, which takes the offset of
        its first sample.  Each sample keeps its own k, so the partial steps
        cost what the distinct offsets cost, whatever the horizon.

        The first row m of M(tau) has the lifted angle of _partial.  The
        first row of M(t) W is m B_k with B_k = M_T^k W.  A map of
        determinant 1 keeps the order of directions and turns each by
        less than pi from the angle c_k it gives the first unit row
        (1, 0), so the angle of m B_k lifts to
        alpha + c_k + wrap(angle(m B_k) - alpha - c_k) exactly, however
        far the flow squeezes; period k turns by that lift at alpha(T),
        less c_k.  There is no normal frame: a hyperbolic period map (a
        schedule inside a resonance tongue) is sampled like any other.
        """
        t0, alpha, T = self.t0, self.alpha, self.sched.period
        t = np.concatenate([[t0], times, [t1]]).astype(float)
        s = t - t0
        period = np.maximum(np.floor(s / T), 0.0).astype(int)
        tau = s - period * T
        # groups of offsets, sorted, that no gap over the resolution splits
        order = np.argsort(tau, kind="stable")
        new = np.diff(tau[order], prepend=-T) > _OFFSET_RESOLUTION * T
        shared = np.empty_like(order)
        shared[order] = np.cumsum(new) - 1
        first = np.minimum.reduceat(order, np.flatnonzero(new))
        M_tau, K_tau, a = (x[shared] for x in self._partial(tau[first]))
        # M_T^k and the sums of K over k whole periods, k = 0 .. max
        powers, sums = [np.eye(2)], [np.zeros((2, 2))]
        for _ in range(int(period.max())):
            P = powers[-1]
            sums.append(sums[-1] + P.T @ self.Ks[-1] @ P)
            powers.append(P @ self.Ms[-1])
        powers = np.array(powers)
        B = powers[period]
        M = M_tau @ B

        c = _row_angle(powers @ W)
        turns = alpha[-1] + _wrap(c[1:] - alpha[-1] - c[:-1])
        before = np.concatenate([[0.0], np.cumsum(turns)])[period]
        angle = before + a + _wrap(_row_angle(M @ W) - a - c[period])
        return FlowSample(
            t=t, M=M, K=np.array(sums)[period] + np.transpose(B, (0, 2, 1))
            @ K_tau @ B, angle=angle)


@contextlib.contextmanager
def shared_passes():
    """Within the block, period_pass computes each distinct (schedule,
    float(t0)) once and returns that PeriodPass to every later call.  The
    passes are dropped when the block closes."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def period_pass(sched: ParameterSchedule, t0: float = 0.0) -> PeriodPass:
    """The certified Gauss pass over [t0, t0 + T]; inside shared_passes()
    the pass already computed for (sched, t0), if any.

    Ms, Ks and alpha are read-only, so that no caller can move a pass
    another caller reads.

    The pass is on N steps, N set by the schedule alone (_step_count),
    where N >= 2, the turn certificate (_turn_bounds, module doc) bounds
    every step's turn under pi, and the pass on ceil(N/2) steps is within
    _ESTIMATE_BOUND of it; otherwise it is on m N steps, m > the largest
    bound / pi, with the N pass as its estimate.  estimate is the larger
    of max |M' - M| / max(1, max |M|) at t0 + T and the same for K, M the
    end of the pass and M' that of its estimate.  The angle alpha of the
    first row of M is lifted over the steps on the nearest branches,
    exact since every step turns it by less than pi.  ConvergenceError is
    raised where the N pass has no certificate, where m N is over
    _MAX_PASS_STEPS, and where the refined pass is past _ESTIMATE_BOUND.
    """
    shared = _SHARED.get()
    if shared is None:
        return _period_pass(sched, t0)
    key = (sched, float(t0))
    if key not in shared:
        shared[key] = _period_pass(sched, t0)
    return shared[key]


def _period_pass(sched: ParameterSchedule, t0: float) -> PeriodPass:
    """The pass of period_pass, computed afresh."""
    N = _step_count(sched)
    # the steps of the estimate on ceil(N/2) steps are taken with those of
    # the N pass, before the certificate that decides whether it is read
    (Ms, Ks), half = _gauss_passes(sched, (N, (N + 1) // 2), t0)
    turn_bound = float(_turn_bounds(sched, Ms).max())
    estimate = math.inf
    if N >= 2 and turn_bound < math.pi:
        estimate = _disagreement(Ms, Ks, *half)
    if not estimate <= _ESTIMATE_BOUND:
        # each step of the pass on m N steps lies inside a step of the N
        # pass and turns the row by at most turn_bound / m < pi
        m = math.inf
        if turn_bound < math.inf:
            m = max(2, math.floor(turn_bound / math.pi) + 1)
        if not m * N <= _MAX_PASS_STEPS:
            raise ConvergenceError(
                f"period pass on N = {N} steps: turn bound {turn_bound:.3g} "
                f"rad, estimate {estimate:.3e}; m = {m} times the steps "
                f"would be over the ceiling of {_MAX_PASS_STEPS}")
        coarse = Ms, Ks
        (Ms, Ks), = _gauss_passes(sched, (m * N,), t0)
        estimate = _disagreement(Ms, Ks, *coarse)
        if not estimate <= _ESTIMATE_BOUND:
            raise ConvergenceError(
                f"period pass on N = {N} steps: turn bound {turn_bound:.3g} "
                f"rad; on m N = {m * N} steps (m = {m}) it disagrees with "
                f"the N pass by {estimate:.3e} (relative), over the bound "
                f"{_ESTIMATE_BOUND:.0e}")
        turn_bound /= m
    alpha = np.unwrap(_row_angle(Ms))
    for x in (Ms, Ks, alpha):
        x.flags.writeable = False
    return PeriodPass(sched=sched, t0=t0, Ms=Ms, Ks=Ks, alpha=alpha,
                      estimate=estimate, turn_bound=turn_bound)


def _nu(eps, omega):
    """The frequency nu = sqrt((1 + omega/2)^2 - eps^2) of the standard
    family's exact solution in the frame rotating at omega/2."""
    return math.sqrt((1.0 + 0.5 * omega) ** 2 - eps * eps)


def compute_monodromy(sched: ParameterSchedule) -> Monodromy:
    """The period pass from t = 0 (period_pass), then (sigma, k, rho) and
    the normal frame W of M = M(T).

    A map normal_frame refuses (a schedule in or next to a resonance
    tongue) is reported with the half-turns of the row lift over the
    period, their rounded count k, and the pass's estimate; on the
    standard family also with the resonance in frequency terms, the
    Floquet frequency rho/T = nu - omega/2 against k omega/2 (nu = _nu).

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

    alpha = flow.alpha[-1]
    try:
        W, sigma = normal_frame(M)
    except NonEllipticError as exc:
        # a map at or past the boundary sits in (or next to) the resonance
        # tongue of k half-turns: the row turns by about k pi per period
        k = round(alpha / math.pi)
        frequency = ""
        if sched.kind == STANDARD:
            omega = sched.omega
            frequency = (
                f"; Floquet frequency nu - omega/2 = "
                f"{_nu(sched.epsilon, omega) - 0.5 * omega:.12g} against "
                f"k omega/2 = {0.5 * k * omega:.12g}")
        raise NonEllipticError(
            f"{exc}; over the period the first row of M turns "
            f"alpha_T/pi = {alpha / math.pi:.3f} half-turns, resonance "
            f"k = {k}; pass estimate {flow.estimate:.1e} on N = "
            f"{flow.steps} steps{frequency}"
        ) from exc
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
