"""Tests of the benchmark itself (not collected by the package's suite):

    python3 -m pytest -q bench/selftest.py

They show that the references agree with each other, that every workload
runs clean at smoke size, and that a corrupted artifact is counted as a
failed operation.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from reference import (Schedule, invariant_form, phase_reference,  # noqa: E402
                       trajectory_reference)


@pytest.fixture(scope="module")
def pkg():
    return run.import_package()


def _as_fourier(sched):
    e = sched.eps
    return Schedule.fourier(sched.period, [(1.0, 0.0), (e, 0.0)],
                            [(1.0, 0.0), (-e, 0.0)], [(0.0, 0.0), (0.0, e)])


@pytest.mark.parametrize("eps, omega", [(0.05, 1.0), (0.6, 0.5), (0.9, 3.0)])
def test_exact_standard_solution_matches_rk4_path(eps, omega):
    exact = Schedule.standard(eps, omega)
    a, b = phase_reference(exact), phase_reference(_as_fourier(exact))
    assert np.abs(a.M - b.M).max() < 1e-10
    assert abs(a.rho - b.rho) < 1e-10      # closed form vs counted windings
    assert abs(a.trKS - b.trKS) < 1e-9
    assert abs(np.linalg.det(a.M) - 1.0) < 1e-12


def test_invariant_form_is_invariant_and_unimodular():
    ref = phase_reference(Schedule.standard(0.4, 0.7))
    S = invariant_form(ref.M)
    assert np.abs(ref.M @ S @ ref.M.T - S).max() < 1e-12
    assert abs(np.linalg.det(S) - 1.0) < 1e-12 and S[0, 0] > 0.0


def test_trajectory_reference_keeps_uncertainty_product():
    rows = trajectory_reference(Schedule.standard(0.5, 1.2),
                                (0.3, -0.4, 0.6, 0.1), 2.0, 4, 256)
    G, Pi = rows[:, 3], rows[:, 4]
    # S = [[2G, 4G Pi], [4G Pi, 1/(2G) + 8 Pi^2 G]] has det 1 on the flow
    det = 2.0 * G * (0.5 / G + 8.0 * Pi * Pi * G) - (4.0 * G * Pi) ** 2
    assert np.abs(det - 1.0).max() < 1e-10


def test_workloads_repeat_for_a_seed_and_vary_across_seeds():
    for name in workloads.NAMES:
        one = [op.config for op in workloads.build(name, 7, smoke=True).ops]
        two = [op.config for op in workloads.build(name, 7, smoke=True).ops]
        other = [op.config for op in workloads.build(name, 8, smoke=True).ops]
        assert one == two and one != other


def test_smoke_every_workload_runs_clean(pkg):
    for name in workloads.NAMES:
        result, report = run.run_workload(pkg, name, 3, 0.0, trace=False,
                                          smoke=True)
        assert result["attempted"] > 0
        assert result["failed"] == 0, "\n".join(report)


def test_traced_smoke_reports_every_per_layer_metric(pkg):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result, report = run.run_workload(pkg, "fourier-phases", 3, 0.0,
                                      trace=True, smoke=True)
    assert result["failed"] == 0, "\n".join(report)
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["monodromy.schedule_evals"]["value"] > 0
    assert metrics["dynamics.schedule_evals"]["value"] == 0


class _Corrupting:
    """Stands in for squeezephase.cli: runs main, then edits its output."""

    def __init__(self, cli, edit):
        self.cli, self.edit = cli, edit

    def main(self, argv):
        code = self.cli.main(argv)
        self.edit(Path(argv[argv.index("--out") + 1]))
        return code


def _op(sub, name="standard-phases"):
    wl = workloads.build(name, 3, smoke=True)
    return next(op for op in wl.ops if op.sub == sub)


def _shift_json(filename, key, delta):
    def edit(out):
        path = out / filename
        data = json.loads(path.read_text())
        data[key] += delta
        path.write_text(json.dumps(data))
    return edit


def test_shifted_lambda_G_R_counts_as_failed(pkg, tmp_path):
    op = _op("floquet")
    clean = run.Runner(pkg, tmp_path / "clean")
    clean.attempt(op)
    assert (clean.attempted, clean.failed) == (1, 0)

    bad = run.Runner({**pkg, "cli": _Corrupting(
        pkg["cli"], _shift_json("floquet_n1.json", "lambda_G_R", 1e-6))},
        tmp_path / "bad")
    bad.attempt(op)
    assert (bad.attempted, bad.failed) == (1, 1)
    assert any("lambda_G_R" in problem for _, problem in bad.problems)


def test_changed_sweep_cell_counts_as_failed(pkg, tmp_path):
    def edit(out):
        path = out / "sweep.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[3] = repr(float(cells[3]) + 1e-6)          # theta_traj
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    runner = run.Runner({**pkg, "cli": _Corrupting(pkg["cli"], edit)},
                        tmp_path)
    runner.attempt(_op("sweep"))
    assert runner.failed == 1
    assert any("theta_traj" in problem for _, problem in runner.problems)


def test_artifact_that_changes_between_invocations_fails(pkg, tmp_path):
    op = _op("hannay")
    runner = run.Runner(pkg, tmp_path)
    runner.attempt(_op("orbit"))
    runner.attempt(op)
    assert runner.failed == 0

    def edit(out):
        with open(out / "hannay.json", "a") as fh:
            fh.write("\n")                 # same values, other bytes

    runner.pkg = {**pkg, "cli": _Corrupting(pkg["cli"], edit)}
    runner.attempt(op)
    assert runner.failed == 1
    assert any("byte-identical" in problem for _, problem in runner.problems)


def test_nonzero_exit_counts_as_failed(pkg, tmp_path):
    op = _op("orbit")
    op.config = "epsilon=1.5\n"
    runner = run.Runner(pkg, tmp_path)
    runner.attempt(op)
    assert runner.failed == 1
    assert any("exit code 2" in problem for _, problem in runner.problems)


def test_reference_rotation_number_counts_windings():
    # slow drive: several full turns per period
    ref = phase_reference(Schedule.standard(0.3, 0.4))
    assert ref.rho > 4.0 * math.pi
