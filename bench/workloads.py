"""Seeded workloads: squeeze-phase configs plus the checks of their outputs.

Every workload is a list of operations (one CLI invocation each) that the
benchmark repeats in passes.  The inputs come only from the seed; the
package sees nothing but the generated config files.  Draws are stratified
(one point per drive-strength and drive-speed band) so that the work in a
pass varies little from seed to seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import artifacts
from reference import (Schedule, closed_form_angle, default_nodes,
                       min_ellipticity, period_nodes, phase_reference,
                       reference_problems)

NAMES = ("standard-phases", "fourier-phases", "trajectory")

# distance 2 - |tr M(T)| a generated schedule keeps from the parabolic
# boundary (resonance tongues), and the floor of a*b - c^2
MIN_TRACE_MARGIN = 0.1
MIN_ELLIPTICITY = 0.2

# standard-family bands (weak/middle/strong drive, slow/middle/fast drive);
# narrow, so that the work in a pass varies little with the seed
EPS_BANDS = ((0.02, 0.12), (0.3, 0.45), (0.65, 0.85))
OMEGA_BANDS = ((0.5, 0.6), (1.1, 1.4), (2.2, 2.8))

ORBIT_SAMPLES = 512


@dataclass
class Op:
    """One CLI invocation and the check of what it wrote."""

    name: str                 # unique within the workload
    sub: str                  # squeeze-phase subcommand
    config: str               # config file text
    input_id: str             # shared by the operations of one input
    check: object             # check(out_dir, stdout, outputs) -> [problems]
    units: int = 1            # sweep: grid points


@dataclass
class Workload:
    ops: list                 # one pass
    schedules: list           # reference.Schedule per input, for layer probes
    serial_sweep: Op | None = None   # traced run: the sweep without a pool

    def reference_problems(self):
        """Self-checks of the phase references (empty when sound)."""
        return [p for sched in self.schedules for p in reference_problems(
            sched, phase_reference(sched))]


def build(name, seed, smoke=False):
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return {"standard-phases": _standard_phases,
            "fourier-phases": _fourier_phases,
            "trajectory": _trajectory}[name](rng, smoke)


# ----------------------------------------------------------------------
# Draws
# ----------------------------------------------------------------------

def _standard_margin(eps, omega):
    """Exact 2 - |tr M(T)| of the standard family, tr M = 2 cos(rho)."""
    nu = math.sqrt((1.0 + 0.5 * omega) ** 2 - eps ** 2)
    return 2.0 - abs(2.0 * math.cos(2.0 * math.pi * nu / omega - math.pi))


def _standard_point(rng, eps_band, omega_band):
    """(eps, omega) in the bands, away from the parabolic boundary."""
    while True:
        eps = float(rng.uniform(*eps_band))
        omega = float(rng.uniform(*omega_band))
        if _standard_margin(eps, omega) >= MIN_TRACE_MARGIN:
            return eps, omega


def _sweep_grid(rng):
    """A weak and a strong drive at a middle and a fast drive speed."""
    while True:
        eps = [float(rng.uniform(*EPS_BANDS[0])),
               float(rng.uniform(*EPS_BANDS[2]))]
        omegas = [float(rng.uniform(*OMEGA_BANDS[1])),
                  float(rng.uniform(*OMEGA_BANDS[2]))]
        if all(_standard_margin(e, w) >= MIN_TRACE_MARGIN
               for e in eps for w in omegas):
            return eps, omegas


def _fourier_schedule(rng, harmonics, amplitude, period_range):
    """Random elliptic Fourier schedule.

    Harmonic k of each coefficient has magnitude amplitude/k (times one
    factor in [0.9, 1.1] per schedule) and a random phase.  A draw whose
    a*b - c^2 or whose independently computed 2 - |tr M(T)| is too small
    is drawn again.
    """
    while True:
        period = float(rng.uniform(*period_range))
        scale = amplitude * float(rng.uniform(0.9, 1.1))
        coef = []
        for const in (1.0, 1.0, 0.0):
            pairs = [(const + float(rng.uniform(-0.05, 0.05)), 0.0)]
            for k in range(1, harmonics + 1):
                phase = float(rng.uniform(0.0, 2.0 * math.pi))
                pairs.append((scale / k * math.cos(phase),
                              scale / k * math.sin(phase)))
            coef.append(pairs)
        sched = Schedule.fourier(period, *coef)
        if min_ellipticity(sched) < MIN_ELLIPTICITY:
            continue
        M = period_nodes(sched, default_nodes(sched))[1][-1]
        if 2.0 - abs(float(np.trace(M))) >= MIN_TRACE_MARGIN:
            return sched


def _nodes_for(sched, samples):
    """Reference node count that is a multiple of the orbit samples."""
    return samples * max(1, math.ceil(default_nodes(sched) / samples))


# ----------------------------------------------------------------------
# Phase workloads
# ----------------------------------------------------------------------

def _phase_ops(tag, sched, states, hbar=1.0):
    ref = phase_reference(sched, _nodes_for(sched, ORBIT_SAMPLES))
    base = sched.config_text() + f"hbar={hbar!r}\n"
    orbit_cfg = base + f"[orbit]\nsamples={ORBIT_SAMPLES}\n"
    floquet_cfg = base + "[floquet]\nn=" + ",".join(map(str, states)) + "\n"
    return [
        Op(f"{tag}-orbit", "orbit", orbit_cfg, tag,
           artifacts.orbit_check(sched, ref, ORBIT_SAMPLES)),
        Op(f"{tag}-hannay", "hannay", base, tag,
           artifacts.hannay_check(sched, ref, f"{tag}-orbit")),
        Op(f"{tag}-floquet", "floquet", floquet_cfg, tag,
           artifacts.floquet_check(sched, ref, states, hbar)),
    ]


def _standard_phases(rng, smoke):
    order = rng.permutation(len(OMEGA_BANDS))
    pairs = [(EPS_BANDS[i], OMEGA_BANDS[j]) for i, j in enumerate(order)]
    if smoke:
        pairs = pairs[:1]
    states = (0, 1) if smoke else (0, 1, 2, 3)
    ops, scheds = [], []
    for i, (eb, ob) in enumerate(pairs):
        sched = Schedule.standard(*_standard_point(rng, eb, ob))
        scheds.append(sched)
        ops += _phase_ops(f"std{i}", sched, states)

    # one sweep over a 2 x 2 grid (1 x 2 in smoke mode)
    eps, omegas = _sweep_grid(rng)
    if smoke:
        eps = eps[:1]
    grid = [(e, w) for e in eps for w in omegas]
    sweep_text = ("[sweep]\neps=" + ",".join(repr(e) for e in eps)
                  + "\nomega=" + ",".join(repr(w) for w in omegas) + "\n")
    check = artifacts.sweep_check(grid)
    ops.append(Op("sweep", "sweep", sweep_text, "sweep", check,
                  units=len(grid)))
    ops.append(Op("check", "check", "", "check", artifacts.check_check))
    serial = Op("sweep-serial", "sweep", sweep_text + "workers=1\n", "sweep",
                artifacts.same_as(check, "sweep", "sweep.csv"),
                units=len(grid))
    return Workload(ops, scheds, serial)


# harmonic counts of the Fourier phase workload and its state list
FOURIER_HARMONICS = (1, 2, 3, 4, 5, 6)
FOURIER_STATES = (0, 1, 2, 3, 4, 5)


def _fourier_phases(rng, smoke):
    counts = FOURIER_HARMONICS[1:2] if smoke else FOURIER_HARMONICS
    states = FOURIER_STATES[:3] if smoke else FOURIER_STATES
    ops, scheds = [], []
    for i, k in enumerate(counts):
        sched = _fourier_schedule(rng, k, 0.12, (5.0, 5.5))
        scheds.append(sched)
        ops += _phase_ops(f"fourier{i}-k{k}", sched, states)
    return Workload(ops, scheds)


# ----------------------------------------------------------------------
# Trajectory workload
# ----------------------------------------------------------------------

TRAJECTORY_HARMONICS = 8


def _trajectory(rng, smoke):
    """simulate only, over a horizon of whole periods with dense output.

    Each run is (tag, schedule, horizon, output samples, integrator
    lines); the horizon is rounded to whole periods and the samples to a
    multiple of them, so the work varies little with the drawn period.
    Two draws of each kind average out the rest.
    """
    runs = []
    for rep in range(1 if smoke else 2):
        runs += [
            (f"std-{rep}", Schedule.standard(*_standard_point(
                rng, EPS_BANDS[1], OMEGA_BANDS[1])), 100.0, 4096, ""),
            (f"std-slow-{rep}", Schedule.standard(*_standard_point(
                rng, EPS_BANDS[2], OMEGA_BANDS[0])), 100.0, 2048, ""),
            (f"fourier-k{TRAJECTORY_HARMONICS}-{rep}", _fourier_schedule(
                rng, TRAJECTORY_HARMONICS, 0.08, (5.0, 6.0)), 50.0, 2048,
             ""),
            (f"rk4-{rep}", Schedule.standard(*_standard_point(
                rng, EPS_BANDS[1], OMEGA_BANDS[1])), 25.0, 512,
             "method=rk4-fixed\nstep=0.004\n"),
        ]
    ops, scheds = [], []
    for tag, sched, horizon, samples, method in runs:
        periods = max(1, round(horizon / sched.period))
        per_period = max(1, round(samples / periods))
        if smoke:
            periods, per_period = 2, 32
        samples = periods * per_period
        state = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)),
                 float(rng.uniform(0.3, 0.8)), float(rng.uniform(-0.2, 0.2)))
        hbar = float(rng.choice([0.5, 1.0, 2.0]))
        t1 = periods * sched.period
        text = (sched.config_text() + f"hbar={hbar!r}\n" + method
                + "[simulate]\n"
                + "".join(f"{k}={v!r}\n" for k, v in
                          zip(("q0", "p0", "g0", "pi0"), state))
                + f"t1={t1!r}\nsamples={samples}\n")
        scheds.append(sched)
        ops.append(Op(f"simulate-{tag}", "simulate", text, tag,
                      artifacts.simulate_check(sched, state, hbar, periods,
                                               samples)))
    return Workload(ops, scheds)


def describe(wl):
    """One line per input, for the report."""
    lines = []
    for sched in wl.schedules:
        if sched.kind == "standard":
            theta = closed_form_angle(sched.eps, sched.omega)
            lines.append(f"standard eps={sched.eps:.4f} "
                         f"omega={sched.omega:.4f} theta_closed={theta:.5f}")
        else:
            lines.append(f"fourier K={sched.harmonics} T={sched.period:.4f}")
    return lines
