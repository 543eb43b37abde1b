import collections
import concurrent.futures
import dataclasses

import numpy as np
import pytest

from squeezephase import checks, dynamics, monodromy, orbits
from squeezephase.checks import CheckResult, run_builtin_checks
from squeezephase.cli import _fmt, _sweep_point, main, parse_config, run
from squeezephase.params import ParameterSchedule
from witness import random_fourier


def test_builtin_suite_all_pass():
    results = run_builtin_checks()
    failed = [r for r in results if not r.passed]
    assert not failed, f"failed checks: {[(r.name, r.detail) for r in failed]}"
    assert len(results) >= 15


def test_check_subcommand_exit_and_output(tmp_path, capsys):
    assert run("check", parse_config(""), out_dir=tmp_path) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_check_subcommand_reports_failure(tmp_path, capsys, monkeypatch):
    def failing():
        return CheckResult(name="always-fails", passed=False, detail="x = 1")

    monkeypatch.setattr(checks, "ALL_CHECKS", (failing,))
    assert run("check", parse_config(""), out_dir=tmp_path) == 1
    captured = capsys.readouterr()
    assert captured.out == "FAIL always-fails: x = 1\n"
    assert "one or more built-in checks failed" in captured.err


def test_check_needs_no_config(tmp_path, capsys):
    assert main(["check", "--out", str(tmp_path)]) == 0


def test_only_the_witness_checks_run_the_flow(monkeypatch):
    # every other check holds its property on the route that computes it
    calls = collections.Counter()
    running = [None]
    flow = dynamics.flow

    def counted(*args, **kwargs):
        calls[running[0]] += 1
        return flow(*args, **kwargs)

    def named(fn):
        def run_one():
            running[0] = fn.__name__
            return fn()
        return run_one

    monkeypatch.setattr(dynamics, "flow", counted)
    monkeypatch.setattr(checks, "ALL_CHECKS",
                        tuple(named(fn) for fn in checks.ALL_CHECKS))
    assert len(run_builtin_checks()) == 15
    assert set(calls) == {"check_orbit_phase_witness",
                          "check_floquet_flow_witness"}


def _fails(check):
    result = check()
    assert not result.passed, result.detail


def test_phase_additivity_catches_lost_start_phases(monkeypatch):
    # a linear route that restarts the phases at a start time t0 != 0
    linear_path = dynamics._linear_path

    def drop_start_phases(state0, *args):
        if state0.t != 0.0:
            state0 = dataclasses.replace(state0, lambda_G=0.0, lambda_D=0.0)
        return linear_path(state0, *args)

    monkeypatch.setattr(dynamics, "_linear_path", drop_start_phases)
    _fails(checks.check_phase_additivity)


def test_orbit_loop_area_catches_a_scaled_cycle_phase(monkeypatch):
    cycle_phases = orbits.cycle_phases

    def scaled(mono):
        lam_G, lam_D = cycle_phases(mono)
        return lam_G * (1.0 + 1e-10), lam_D

    monkeypatch.setattr(orbits, "cycle_phases", scaled)
    _fails(checks.check_orbit_loop_area)


@pytest.mark.parametrize("sched", [
    ParameterSchedule.standard(checks.EPS, checks.OMEGA),
    random_fourier(np.random.default_rng(7), 3),
], ids=["standard", "fourier-3"])
def test_orbit_witness_reads_the_orbit_off_the_pass(sched):
    # the witness starts from fluctuation_point(S) with the cycle phases
    # of the monodromy: the orbit's start point and phases, bit for bit
    mono = monodromy.compute_monodromy(sched)
    orb = orbits.find_periodic_orbit(sched)
    assert monodromy.fluctuation_point(mono.S) == (orb.G0, orb.Pi0)
    assert orbits.cycle_phases(mono) == (orb.lambda_G_cycle,
                                         orb.lambda_D_cycle)


def test_orbit_witness_catches_a_shifted_dynamical_phase(monkeypatch):
    cycle_phases = orbits.cycle_phases

    def shifted(mono):
        lam_G, lam_D = cycle_phases(mono)
        return lam_G, lam_D + 1e-7

    monkeypatch.setattr(orbits, "cycle_phases", shifted)
    _fails(checks.check_orbit_phase_witness)


def test_hbar_check_catches_a_one_ulp_width_shift(monkeypatch):
    linear_path = dynamics._linear_path

    def hbar_width(state0, t1, sched, hbar, output_times):
        t, y = linear_path(state0, t1, sched, hbar, output_times)
        if hbar != 1.0:
            y[:, 2] = np.nextafter(y[:, 2], np.inf)
        return t, y

    monkeypatch.setattr(dynamics, "_linear_path", hbar_width)
    _fails(checks.check_hbar_independent_fluctuations)


def test_sweep_rows_are_its_points_in_process(tmp_path, monkeypatch):
    # every grid point runs in the calling process, in order: a process
    # pool would fail the run
    def no_pool(*args, **kwargs):
        raise AssertionError("sweep started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    eps, omega = (0.02, 0.05), (0.5, 1.0, 2.0)
    text = "[sweep]\neps=0.02,0.05\nomega=0.5,1.0,2.0"
    assert run("sweep", parse_config(text), out_dir=tmp_path) == 0
    lines = (tmp_path / "sweep.csv").read_bytes().decode().split("\n")
    assert lines[1:] == [",".join(map(_fmt, _sweep_point(e, w)))
                         for e in eps for w in omega] + [""]
