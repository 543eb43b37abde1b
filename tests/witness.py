"""Independent witness for quantities derived from the period pass.

The witness is the nonlinear extended-state flow of dynamics.integrate:
it carries (q, p, G, Pi) and accumulates lambda_G and lambda_D in its own
right-hand side, sharing nothing with compute_monodromy but the stepper.
"""

import math

import numpy as np

from squeezephase.dynamics import ExtendedState, integrate
from squeezephase.params import Constants


def ellipse_points(W, I_bar, n):
    """n points of action I_bar on the invariant ellipse of the normal
    frame W, uniform in the normal-frame angle."""
    phis = 2.0 * math.pi * np.arange(n) / n
    r = math.sqrt(2.0 * I_bar)
    return np.column_stack([r * np.sin(phis), r * np.cos(phis)]) @ W.T


def period_end(sched, q, p, G, Pi, hbar=1.0):
    """Extended state after one period of the flow started at t = 0."""
    return integrate(ExtendedState(q=q, p=p, G=G, Pi=Pi), sched.period,
                     sched, consts=Constants(hbar=hbar)).final
