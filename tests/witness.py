"""Independent witness for quantities derived from the period pass.

The witness is the nonlinear extended-state flow of dynamics.integrate:
it carries (q, p, G, Pi) and accumulates lambda_G and lambda_D in its own
right-hand side, sharing nothing with compute_monodromy but the stepper.
Its start points on the invariant ellipse come from
squeezephase.checks.ellipse_points, which the built-in checks share.
"""

from squeezephase.dynamics import ExtendedState, integrate
from squeezephase.params import Constants


def period_end(sched, q, p, G, Pi, hbar=1.0):
    """Extended state after one period of the flow started at t = 0."""
    return integrate(ExtendedState(q=q, p=p, G=G, Pi=Pi), sched.period,
                     sched, consts=Constants(hbar=hbar)).final
