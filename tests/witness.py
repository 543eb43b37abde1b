"""Independent witnesses for quantities derived from the period pass.

The flow witness is the nonlinear extended-state flow of
dynamics.integrate under rk45-adaptive (FLOW): it carries (q, p, G, Pi)
and accumulates lambda_G and lambda_D in its own right-hand side, sharing
nothing with compute_monodromy.  Its start points on the invariant ellipse come from
squeezephase.checks.ellipse_points, which the built-in checks share.

The pass witness integrates M(t) and K(t) of the period pass by the
adaptive Dormand-Prince stepper instead of Gauss-Legendre collocation.
"""

import math

import numpy as np

from squeezephase.dynamics import (ExtendedState, IntegratorOptions,
                                   integrate, integrate_ode)
from squeezephase.monodromy import normal_frame
from squeezephase.params import Constants, ParameterSchedule

# tight enough that the witness's own error (~1e-12 in M, ~1e-11 in K over
# a slow drive's period) stays under the bounds it is held to
_PASS_OPTS = IntegratorOptions(method="rk45-adaptive", rtol=3e-13,
                               atol=3e-13)
# named, since the default linear route shares the Gauss pass
FLOW = IntegratorOptions(method="rk45-adaptive")


def random_fourier(rng, harmonics):
    # a seeded random Fourier schedule, elliptic by construction: a, b >= 0.8 - 0.2 and |c| <= 0.05 + 0.2,
    # so a b - c^2 >= 0.36 - 0.0625
    amp = 0.1 / harmonics

    def coeff(mean):
        return [(mean, 0.0)] + [tuple(rng.uniform(-amp, amp, 2))
                                for _ in range(harmonics)]
    return ParameterSchedule.fourier(
        rng.uniform(2.0, 8.0), coeff(rng.uniform(0.8, 1.2)),
        coeff(rng.uniform(0.8, 1.2)), coeff(rng.uniform(-0.05, 0.05)))


def period_end(sched, q, p, G, Pi, hbar=1.0):
    """Extended state after one period of the flow started at t = 0."""
    return integrate(ExtendedState(q=q, p=p, G=G, Pi=Pi), sched.period,
                     sched, consts=Constants(hbar=hbar), opts=FLOW).final


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


def rk45_period_pass(sched):
    """(M, K, rho) over one period by the adaptive stepper.

    rho = 2 pi k + sigma with k from the normal-frame angle of one
    solution column, unwrapped over the accepted steps.
    """
    ts, ys, _ = integrate_ode(_period_rhs(sched), 0.0,
                              np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
                              sched.period, _PASS_OPTS)
    Ms = ys[:, :4].reshape(-1, 2, 2)
    W, sigma = normal_frame(Ms[-1])
    qp = (Ms @ (W @ np.array([0.0, 1.0]))) @ np.linalg.inv(W).T
    theta = np.unwrap(np.arctan2(qp[:, 0], qp[:, 1]))
    winding = round((theta[-1] - theta[0] - sigma) / (2.0 * math.pi))
    k11, k12, k22 = ys[-1, 4:]
    return (Ms[-1], np.array([[k11, k12], [k12, k22]]),
            2.0 * math.pi * winding + sigma)
