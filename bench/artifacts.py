"""Checks of the artifacts squeeze-phase writes, against the references.

Each factory returns check(out_dir, stdout, outputs) -> list of problems;
an empty list means the operation is correct.  outputs maps the name of
every operation already run in the pass to its output directory, for
checks that combine two artifacts.
"""

from __future__ import annotations

import json

import numpy as np

from reference import (Schedule, closed_form_angle, phase_reference,
                       trajectory_reference)

# agreement with the independent references, relative to max(1, |ref|);
# measured agreement is 1e-12 to 2e-8
REF_TOL = 2e-7
# identities that hold at roundoff (measured 1e-12 to 2.5e-10)
IDENTITY_TOL = 1e-8
# artifact fields that restate another field or an input
EXACT_TOL = 1e-12


def _close(problems, label, got, want, tol):
    if got is None or not abs(got - want) <= tol * max(1.0, abs(want)):
        problems.append(f"{label} = {got!r}, expected {want!r} (tol {tol:g})")


def _read_json(problems, path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {path.name}: {exc}")
        return None


def _read_csv(problems, path, header, rows):
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        problems.append(f"cannot read {path.name}: {exc}")
        return None
    if not lines or lines[0] != ",".join(header):
        problems.append(f"{path.name}: header {lines[:1]!r}")
        return None
    try:
        data = np.array([[float(x) for x in line.split(",")]
                         for line in lines[1:]])
    except ValueError as exc:
        problems.append(f"{path.name}: {exc}")
        return None
    if data.shape != (rows, len(header)):
        problems.append(f"{path.name}: shape {data.shape}, "
                        f"expected {(rows, len(header))}")
        return None
    return data


def _columns_close(problems, name, header, got, want, tol):
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    bad = ~(err <= tol)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        problems.append(f"{name}: {int(bad.sum())} cells off, first row "
                        f"{row} {header[col]} = {got[row, col]!r}, expected "
                        f"{want[row, col]!r}")


# ----------------------------------------------------------------------
# Phase artifacts
# ----------------------------------------------------------------------

def orbit_check(sched, ref, samples):
    """orbit_summary.json and orbit.csv against S, rho and tr(KS).

    The periodic fluctuation orbit is the Gaussian of covariance
    (hbar/2) M(t) S M(t)^T: G = S11/2 and Pi = S12/(2 S11); its cycle
    phases are lambda_D = -tr(KS)/4 and lambda_G = -rho/2 + tr(KS)/4.
    """
    stride = (len(ref.t) - 1) // samples
    St = ref.path[::stride] @ ref.S @ np.transpose(ref.path[::stride],
                                                    (0, 2, 1))
    want = np.column_stack([ref.t[::stride], 0.5 * St[:, 0, 0],
                            St[:, 0, 1] / (2.0 * St[:, 0, 0])])
    S = ref.S

    def check(out_dir, stdout, outputs):
        problems = []
        summary = _read_json(problems, out_dir / "orbit_summary.json")
        if summary is not None:
            _close(problems, "G0", summary.get("G0"), 0.5 * S[0, 0], REF_TOL)
            _close(problems, "Pi0", summary.get("Pi0"),
                   S[0, 1] / (2.0 * S[0, 0]), REF_TOL)
            _close(problems, "lambda_D", summary.get("lambda_D"),
                   -0.25 * ref.trKS, REF_TOL)
            _close(problems, "lambda_G", summary.get("lambda_G"),
                   -0.5 * ref.rho + 0.25 * ref.trKS, REF_TOL)
            _close(problems, "residual", summary.get("residual"), 0.0, 1e-9)
        header = ("t", "G", "Pi")
        data = _read_csv(problems, out_dir / "orbit.csv", header, samples + 1)
        if data is not None:
            _columns_close(problems, "orbit.csv", header, data, want, REF_TOL)
        return problems
    return check


def hannay_check(sched, ref, orbit_op):
    """hannay.json against rho and rho - tr(KS)/2; for the standard
    family also the closed form, and the quadrature against it.  With
    the orbit of the same input: lambda_G + lambda_D = -rho/2."""

    def check(out_dir, stdout, outputs):
        problems = []
        got = _read_json(problems, out_dir / "hannay.json")
        if got is None:
            return problems
        _close(problems, "rho", got.get("rho"), ref.rho, REF_TOL)
        _close(problems, "theta_trajectory", got.get("theta_trajectory"),
               ref.theta, REF_TOL)
        if sched.kind == "standard":
            closed = closed_form_angle(sched.eps, sched.omega)
            _close(problems, "theta_closed", got.get("theta_closed"),
                   closed, EXACT_TOL)
            # both are second-order perturbative routes; they part at
            # O(eps^8), with a coefficient below 0.01 for omega >= 0.4
            _close(problems, "theta_quadrature",
                   got.get("theta_quadrature"), closed,
                   0.02 * sched.eps ** 8 + 1e-10)
        else:
            for key in ("theta_closed", "theta_quadrature"):
                if got.get(key, 0.0) is not None:
                    problems.append(f"{key} = {got.get(key)!r} for a "
                                    "Fourier schedule, expected null")
        summary = _read_json(problems,
                             outputs[orbit_op] / "orbit_summary.json")
        if summary is not None and got.get("rho") is not None:
            try:
                total = summary["lambda_G"] + summary["lambda_D"]
            except (KeyError, TypeError):
                problems.append("orbit_summary.json lacks the cycle phases")
            else:
                _close(problems, "lambda_G + lambda_D", total,
                       -0.5 * got["rho"], IDENTITY_TOL)
        return problems
    return check


def floquet_check(sched, ref, states, hbar):
    """floquet_n<k>.json: lambda_G_R = -(n+1/2)(rho - tr(KS)/2),
    lambda_D_R = -(n+1/2) tr(KS)/2, residual_total at roundoff."""

    def check(out_dir, stdout, outputs):
        problems = []
        for n in states:
            got = _read_json(problems, out_dir / f"floquet_n{n}.json")
            if got is None:
                continue
            half = n + 0.5
            tag = f"n={n}"
            if got.get("n") != n:
                problems.append(f"{tag}: n = {got.get('n')!r}")
            _close(problems, f"{tag} I_bar0", got.get("I_bar0"), n * hbar,
                   EXACT_TOL)
            _close(problems, f"{tag} hbar", got.get("hbar"), hbar, EXACT_TOL)
            _close(problems, f"{tag} rho", got.get("rho"), ref.rho, REF_TOL)
            _close(problems, f"{tag} lambda_G_R", got.get("lambda_G_R"),
                   -half * ref.theta, REF_TOL)
            _close(problems, f"{tag} lambda_D_R", got.get("lambda_D_R"),
                   -half * 0.5 * ref.trKS, REF_TOL)
            _close(problems, f"{tag} residual_total",
                   got.get("residual_total"), 0.0, IDENTITY_TOL)
            if sched.kind == "standard":
                # theta_H is the closed form; residual_45 then measures its
                # truncation, not an error, and is only checked as defined
                theta = closed_form_angle(sched.eps, sched.omega)
                _close(problems, f"{tag} theta_H", got.get("theta_H"),
                       theta, EXACT_TOL)
                if got.get("lambda_G_R") is not None:
                    _close(problems, f"{tag} residual_45",
                           got.get("residual_45"),
                           got["lambda_G_R"] + half * theta, EXACT_TOL)
            else:
                _close(problems, f"{tag} theta_H", got.get("theta_H"),
                       ref.theta, REF_TOL)
                _close(problems, f"{tag} residual_45", got.get("residual_45"),
                       0.0, REF_TOL)
        return problems
    return check


SWEEP_HEADER = ("eps", "omega", "theta_closed", "theta_traj", "rho",
                "lambda_G_R_n0", "residual_45_n0")


def sweep_check(grid):
    """sweep.csv, one row per (eps, omega) in eps-major order."""
    want = []
    for eps, omega in grid:
        ref = phase_reference(Schedule.standard(eps, omega))
        closed = closed_form_angle(eps, omega)
        want.append([eps, omega, closed, ref.theta, ref.rho,
                     -0.5 * ref.theta, -0.5 * ref.theta + 0.5 * closed])
    want = np.array(want)

    def check(out_dir, stdout, outputs):
        problems = []
        data = _read_csv(problems, out_dir / "sweep.csv", SWEEP_HEADER,
                         len(grid))
        if data is None:
            return problems
        if not np.array_equal(data[:, :2], want[:, :2]):
            problems.append("sweep.csv: grid columns differ from the config")
        _columns_close(problems, "sweep.csv", SWEEP_HEADER, data, want,
                       REF_TOL)
        # the n=0 residual as the file defines it
        _columns_close(problems, "sweep.csv residual_45_n0",
                       SWEEP_HEADER[6:], data[:, 6:],
                       data[:, 5:6] + 0.5 * data[:, 2:3], EXACT_TOL)
        return problems
    return check


def same_as(check, other_op, artifact):
    """check, plus byte equality with the artifact of another operation."""

    def combined(out_dir, stdout, outputs):
        problems = check(out_dir, stdout, outputs)
        try:
            same = ((out_dir / artifact).read_bytes()
                    == (outputs[other_op] / artifact).read_bytes())
        except (KeyError, OSError) as exc:
            return problems + [f"cannot compare {artifact}: {exc}"]
        if not same:
            problems.append(f"{artifact} differs from {other_op}'s")
        return problems
    return combined


def check_check(out_dir, stdout, outputs):
    """The built-in invariant suite: every line PASS, none FAIL."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return ["check printed nothing"]
    bad = [line for line in lines if not line.startswith("PASS ")]
    return [f"check: {line}" for line in bad]


# ----------------------------------------------------------------------
# Trajectory artifacts
# ----------------------------------------------------------------------

TRAJECTORY_HEADER = ("t", "q", "p", "G", "Pi", "lambda_G", "lambda_D",
                     "I", "J", "H_eff")


def simulate_check(sched, state, hbar, periods, samples):
    """trajectory.csv against the Floquet-extended reference flow."""
    want = trajectory_reference(sched, state, hbar, periods, samples)

    def check(out_dir, stdout, outputs):
        problems = []
        data = _read_csv(problems, out_dir / "trajectory.csv",
                         TRAJECTORY_HEADER, samples + 1)
        if data is not None:
            _columns_close(problems, "trajectory.csv", TRAJECTORY_HEADER,
                           data, want, REF_TOL)
        return problems
    return check
