import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from squeezephase import (checks, cli, dynamics, floquet, hannay, monodromy,
                          orbits)
from squeezephase.cli import main, parse_config, run
from squeezephase.errors import ConfigError
from squeezephase.params import STANDARD, ParameterSchedule
import witness


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------

def test_minimal_standard_config():
    cfg = parse_config("epsilon=0.1\nomega=1.0")
    assert cfg.schedule.kind == STANDARD
    assert cfg.schedule.epsilon == 0.1
    assert cfg.constants.hbar == 1.0
    assert cfg.options.method == dynamics.LINEAR == "linear"
    assert cfg.floquet.n == (0,)


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg.schedule.epsilon == 0.0
    assert cfg.schedule.omega == 1.0


def test_epsilon_constraint_reported_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config("epsilon=1.5")
    (line, msg), = err.value.errors
    assert line == 1
    assert "epsilon must be < 1" in msg


def test_multi_section_config():
    cfg = parse_config("hbar=2.0\n[floquet]\nn=0,1,2")
    assert cfg.constants.hbar == 2.0
    assert cfg.floquet.n == (0, 1, 2)


def test_all_errors_reported_not_just_first():
    text = "epsilon=1.5\nbogus=1\nomega=abc\n[floquet]\nn=0.5"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    lines = [line for line, _ in err.value.errors]
    assert lines == [1, 2, 3, 5]


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nepsilon=0.2  # trailing\n")
    assert cfg.schedule.epsilon == 0.2


def test_unknown_section_reported():
    with pytest.raises(ConfigError) as err:
        parse_config("[nonsense]\nfoo=1")
    assert any("unknown section" in msg for _, msg in err.value.errors)


@pytest.mark.parametrize("text, error", [
    # the Hannay routes take the schedule alone: no grid, no action
    ("epsilon=0.1\n[hannay]\nn_t=128\ni_bar=2.0",
     (2, "unknown section [hannay]")),
    ("epsilon=0.1\n[floquet]\nn=1,2,1", (3, "state numbers must not repeat")),
    ("[floquet]\nn=0,-1", (2, "state numbers must be >= 0")),
    # sweeps run in-process: workers takes only 0 or 1
    ("[sweep]\neps=0.1\nomega=1.0\nworkers=-3", (4, "workers must be 0 or 1")),
    ("[sweep]\neps=0.1\nomega=1.0\nworkers=2", (4, "workers must be 0 or 1")),
    ("[sweep]\neps=0.1,1.0\nomega=1.0",
     (2, "sweep eps values must lie in [0, 1)")),
    ("[sweep]\neps=-0.1\nomega=1.0", (2, "sweep eps values must lie in [0, 1)")),
    ("[sweep]\neps=0.1\nomega=1.0,0.0", (3, "sweep omega values must be > 0")),
    # an integrator or hbar error sits on the line of its own key; the
    # tolerances and the step bound are not config keys
    ("rtol=-1", (1, "unknown key 'rtol'")),
    ("epsilon=0.1\nmax_steps=0", (2, "unknown key 'max_steps'")),
    ("epsilon=0.1\nstep=0\nmethod=rk4-fixed", (2, "step must be positive")),
    ("epsilon=0.1\nmethod=rk4-fixed\nstep=0", (3, "step must be positive")),
    # the adaptive stepper is the witness flow, not a route of simulate
    ("epsilon=0.1\nmethod=rk45-adaptive\n[simulate]\nq0=1.0",
     (2, "unknown method 'rk45-adaptive'")),
    ("epsilon=0.1\nhbar=-1", (2, "hbar must be positive and finite, got -1.0")),
    ("epsilon=0.1\nomega=0.0", (2, "omega must be > 0")),
    ("period=0.0\na_cos=1.0", (1, "period must be > 0")),
    ("a_cos=1.0\nb_cos=1.0", (0, "fourier schedule requires period")),
    ("epsilon=0.1\nomega", (2, "expected key=value, got 'omega'")),
    # a start width the right-hand side would refuse
    ("epsilon=0.1\n[simulate]\nq0=1.0\ng0=1e-7",
     (4, "g0 must be > 1e-06, the width floor")),
    ("[simulate]\nsamples=0", (2, "samples must be >= 1")),
    ("[simulate]\nt1=0.0", (2, "t1 must be > 0")),
    ("[orbit]\nsamples=7", (2, "samples must be >= 8")),
], ids=["hannay-section", "repeated-state", "negative-state", "negative-workers",
        "two-workers", "sweep-eps-one", "sweep-eps-negative", "sweep-omega",
        "rtol", "max-steps", "rk4-step", "step-after-method", "rk45-method",
        "hbar", "omega",
        "period", "period-missing", "no-equals", "g0-floor",
        "simulate-samples", "simulate-t1", "orbit-samples"])
def test_rejected_with_line(text, error):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == [error]


@pytest.mark.parametrize("text, errors", [
    ("method=bogus\nstep=-1",
     [(1, "unknown method 'bogus'"), (2, "step must be positive")]),
    ("step=-1\nmethod=bogus",
     [(1, "step must be positive"), (2, "unknown method 'bogus'")]),
])
def test_each_integrator_error_on_its_own_line(text, errors):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == errors


@pytest.mark.parametrize("text, line", [
    ("[sweep]\neps=0.1\nomega=1.0,nan", 3),
    ("[sweep]\neps=0.1,inf\nomega=1.0", 2),
    ("period=6.0\na_cos=1.0,nan\nb_cos=1.0", 2),
    ("period=6.0\na_cos=1.0\nb_cos=1.0\nc_sin=0.0,-inf", 4),
])
def test_non_finite_list_values_rejected(text, line):
    # the malformed value is the only error: no schedule is built with a
    # default in place of the dropped key
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    (got, msg), = err.value.errors
    assert got == line and msg.startswith("malformed value")


def test_overflowing_coefficients_are_a_config_error(tmp_path):
    # a*b - c^2 overflows for finite coefficients this large; under
    # filterwarnings = error a numpy warning would surface as a traceback
    cfg_file = tmp_path / "huge.cfg"
    cfg_file.write_text("period=1.0\na_cos=1e200\nb_cos=1e200\nc_cos=1e200\n")
    assert main(["hannay", "--config", str(cfg_file),
                 "--out", str(tmp_path)]) == 2


def test_fourier_config_builds_schedule():
    text = ("period=6.283185307179586\n"
            "a_cos=1.0,0.05\nb_cos=1.0,-0.05\nc_sin=0.0,0.05\n")
    cfg = parse_config(text)
    assert cfg.schedule.kind == "fourier"
    a, b, c = cfg.schedule.eval(0.0)
    assert a == pytest.approx(1.05)
    assert b == pytest.approx(0.95)
    assert c == pytest.approx(0.0)


def test_fourier_and_standard_keys_conflict():
    with pytest.raises(ConfigError) as err:
        parse_config("epsilon=0.1\nperiod=1.0\na_cos=1.0")
    assert any("cannot mix" in msg for _, msg in err.value.errors)


def test_non_elliptic_fourier_rejected():
    text = "period=1.0\na_cos=0.5\nb_cos=0.5\nc_cos=1.0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("a*b > c^2" in msg for _, msg in err.value.errors)


# ----------------------------------------------------------------------
# subcommands and artifacts
# ----------------------------------------------------------------------

def test_orbit_artifacts(tmp_path):
    cfg = parse_config("epsilon=0.1\nomega=1.0\n[orbit]\nsamples=64")
    assert run("orbit", cfg, out_dir=tmp_path) == 0
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert summary["G0"] == pytest.approx(0.5 - 0.1 / 3.0, abs=3 * 0.1 ** 2)
    assert summary["residual"] < 1e-10
    header = (tmp_path / "orbit.csv").read_text().splitlines()[0]
    assert header == "t,G,Pi"


def test_hannay_without_drive_all_zero(tmp_path):
    cfg = parse_config("epsilon=0.0\nomega=1.0")
    assert run("hannay", cfg, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "hannay.json").read_text())
    assert report["theta_closed"] == 0.0
    assert abs(report["theta_quadrature"]) < 1e-12
    assert abs(report["theta_trajectory"]) < 1e-9


def test_floquet_reports_residuals(tmp_path):
    cfg = parse_config("epsilon=0.05\nomega=1.0\n[floquet]\nn=0,1,2,3")
    assert run("floquet", cfg, out_dir=tmp_path) == 0
    for n in range(4):
        rep = json.loads((tmp_path / f"floquet_n{n}.json").read_text())
        assert rep["n"] == n
        assert abs(rep["residual_45"]) <= 6.25e-4


def test_simulate_csv_columns(tmp_path):
    cfg = parse_config("epsilon=0.05\n[simulate]\nq0=1.0\nsamples=16")
    assert run("simulate", cfg, out_dir=tmp_path) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,q,p,G,Pi,lambda_G,lambda_D,I,J,H_eff"
    assert len(lines) == 18  # header + samples + 1 rows


@pytest.mark.parametrize("schedule", [
    "epsilon=0.3\nomega=1.2\nhbar=0.5\n",
    "period=5.3\na_cos=1.0,0.05,0.02\na_sin=0.0,0.03\nb_cos=1.0,-0.04\n"
    "c_sin=0.0,0.05,0.01,0.02\nhbar=2.0\n",
])
def test_simulate_columns_match_scalar_helpers(tmp_path, schedule):
    # the writer derives I, J and H_eff for all rows at once; every cell
    # must equal the scalar helpers on the same row of integrate's output
    cfg = parse_config(schedule + "[simulate]\nq0=0.7\np0=-0.3\ng0=0.6\n"
                       "pi0=0.1\nt1=12.0\nsamples=64")
    assert run("simulate", cfg, out_dir=tmp_path) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    grid = np.linspace(0.0, 12.0, 65)
    traj = dynamics.integrate(
        dynamics.ExtendedState(q=0.7, p=-0.3, G=0.6, Pi=0.1), 12.0,
        cfg.schedule, cfg.constants, cfg.options, output_times=grid[1:-1])
    keep = np.searchsorted(traj.t, grid)
    assert len(lines) == len(keep)
    for line, i in zip(lines, keep):
        st = witness.state_at_index(traj, i)
        a, b, c = cfg.schedule.eval(st.t)
        want = [st.t, *dynamics.actions(st),
                dynamics.h_eff(st.q, st.p, st.G, st.Pi, a, b, c,
                               cfg.constants.hbar)]
        cells = line.split(",")
        assert [cells[0], *cells[7:]] == [cli._fmt(v) for v in want]


def test_cell_formatter_spellings():
    # the spelling of each cell type the writers meet: floats to 17
    # significant digits, special values, and the ints and bools that
    # _dump_json writes
    rows = [
        [0.1, -0.0, 1e-300, -1e300, 2.0 / 3.0, 5e-324],
        [float("nan"), 1.0, float("inf"), -float("inf"), 0.0, 3.0],
        [1, True, False, -7, 10 ** 20, 0.5],
        [np.float64(0.1), np.float64("nan"), np.int64(3), 2.5, -2.5, 1e16],
    ]
    spelled = [",".join(map(cli._fmt, r)) for r in rows]
    assert spelled[0] == ("0.10000000000000001,-0,1e-300,"
                          "-1.0000000000000001e+300,0.66666666666666663,"
                          "4.9406564584124654e-324")
    assert spelled[1] == "null,1,inf,-inf,0,3"
    assert spelled[2] == "1,true,false,-7,100000000000000000000,0.5"
    assert spelled[3] == ("0.10000000000000001,null,3,2.5,-2.5,"
                          "10000000000000000")


def _assert_spelled(lines, table):
    # the lines hold the rows of table, each cell spelled by _fmt; the
    # first row that differs is reported
    got = "".join(lines).split("\n")
    want = [",".join(map(cli._fmt, row)) for row in table.tolist()] + [""]
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
               None)
    assert bad is None, (table[bad].tolist(), got[bad], want[bad])
    assert len(got) == len(want)


def test_csv_lines_match_cell_formatter(tmp_path):
    # the table writer spells every cell as _fmt does, byte for byte
    rng = np.random.default_rng(28)
    powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    odd = np.arange(1049, 10486, 2)
    edges = np.concatenate([
        # each decade and the neighbours of its power of ten: a log10 one
        # decade off, the 17-digit rounding next to a power of ten and the
        # ends of fixed notation (X = -5/-4 and 16/17)
        powers, below, above, np.nextafter(below, 0.0),
        np.nextafter(above, np.inf), 9.5 * powers,
        # integer-valued cells and halves, small and past 2^53
        np.arange(2000) / 2.0,
        rng.integers(0, 2 ** 60, 1000).astype(np.float64),
        # exact ties of the 17-digit rounding: m 2^-20 10^19 is m 5^19 / 2
        odd * 2.0 ** -20,
        [0.0, 5e-324, 2.2250738585072009e-308, np.nan, np.inf],
    ])
    cells = np.concatenate([
        # random bit patterns, mostly spelled by _fmt itself
        rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64),
        # random cells in every decade the writer spells itself
        rng.standard_normal(50_000) * 10.0 ** rng.integers(-4, 17, 50_000),
        edges, -edges])
    cells = cells[:len(cells) // 7 * 7]
    table = cells.reshape(-1, 7)
    _assert_spelled(cli._csv_lines(table), table)
    # one string per chunk of rows, the last one short
    chunk = cli._CSV_CHUNK
    for rows in (1, chunk - 1, chunk, chunk + 1):
        part = cells[rng.permutation(len(cells))[:rows * 3]].reshape(rows, 3)
        lines = list(cli._csv_lines(part))
        assert len(lines) == -(-rows // chunk)
        _assert_spelled(lines, part)
    part[0] = [np.nan, -np.inf, 0.5]
    cli._write_table(tmp_path, "t", ["a", "b", "c"], part, "csv")
    assert (tmp_path / "t.csv").read_text().splitlines()[:2] == [
        "a,b,c", "null,-inf,0.5"]
    assert list(cli._csv_lines(np.empty((0, 2)))) == []
    cli._write_table(tmp_path, "empty", ["a", "b"], np.empty((0, 2)), "csv")
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


def test_sweep_table(tmp_path):
    cfg = parse_config("[sweep]\neps=0.0,0.05\nomega=1.0")
    assert run("sweep", cfg, out_dir=tmp_path) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("eps,omega,theta_closed,theta_traj,rho,"
                        "lambda_G_R_n0,residual_45_n0")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == 0.0


def test_byte_identical_reruns(tmp_path):
    # the default linear route through the CLI
    text = "epsilon=0.08\nomega=1.0\n[simulate]\nq0=0.3\nsamples=32"
    cfg = parse_config(text)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("simulate", cfg, out_dir=out1) == 0
    assert run("orbit", cfg, out_dir=out1) == 0
    assert run("simulate", parse_config(text), out_dir=out2) == 0
    assert run("orbit", parse_config(text), out_dir=out2) == 0
    for name in ("trajectory.csv", "orbit.csv", "orbit_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # and the witness flow over the same period, bit for bit
    state = dynamics.ExtendedState(q=0.3, p=0.0, G=0.5, Pi=0.0)
    runs = [witness.flow(state, cfg.schedule.period, cfg.schedule)
            for _ in range(2)]
    assert runs[0].t.tobytes() == runs[1].t.tobytes()
    assert runs[0].y.tobytes() == runs[1].y.tobytes()


def test_json_format_variant(tmp_path):
    cfg = parse_config("epsilon=0.05\n[simulate]\nsamples=8")
    assert run("simulate", cfg, out_dir=tmp_path, fmt="json") == 0
    obj = json.loads((tmp_path / "trajectory.json").read_text())
    assert len(obj["t"]) == 9
    assert obj["t"][0] == 0.0


def test_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a Mathieu schedule inside the first resonance tongue is elliptic at
    # every instant (a*b > c^2) but its period map is hyperbolic
    cfg = parse_config("period=3.141592653589793\na_cos=1.0,0.3\n"
                       "b_cos=1.0\nc_cos=0.0\n")
    for sub in ("orbit", "hannay", "floquet"):
        assert run(sub, cfg, out_dir=tmp_path / sub) == 1
        assert "|tr M| = 2.055" in capsys.readouterr().err
    # a flow pass over its step bound: one period of 0.001 steps, 6284,
    # and at most one more for each of the 255 inner output times
    monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
    cfg = parse_config("epsilon=0.1\nmethod=rk4-fixed\n[simulate]\nq0=1.0")
    assert run("simulate", cfg, out_dir=tmp_path / "simulate") == 1
    assert capsys.readouterr().err == (
        "error: 6539 steps exceed MAX_STEPS=10\n")


def test_tongue_refusal_names_the_resonance_and_the_estimate(tmp_path,
                                                             capsys):
    # a = 1 + 0.5 cos 2t, b = 1 inside the first Mathieu tongue: the row
    # of M turns 0.892 half-turns over the period, so k = 1 (tr M < 0),
    # and the refusal names that count, the pass's estimate and its steps,
    # and no frequency: the schedule is not the standard family
    path = tmp_path / "tongue.cfg"
    path.write_text("period=3.141592653589793\na_cos=1.0,0.5\nb_cos=1.0\n"
                    "c_cos=0.0\n")
    flow = monodromy.period_pass(parse_config(path.read_text()).schedule)
    assert round(flow.alpha[-1] / np.pi, 3) == 0.892
    for sub in ("orbit", "hannay", "floquet"):
        code = main([sub, "--config", str(path), "--out", str(tmp_path / sub)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: |tr M| = 2.153935 >= 2, not elliptic;")
        assert "alpha_T/pi = 0.892 half-turns, resonance k = 1;" in err
        assert err.endswith(f"pass estimate {flow.estimate:.1e} on N = 32 "
                            "steps\n")
    # the standard family meets a resonance where its Floquet frequency
    # rho/T = nu - omega/2 is k omega/2: at (0.75, 0.5), nu = 1, and 1e-8
    # off it 2 - |tr M| = 8e-15 is refused, named in frequency terms too
    path.write_text("epsilon=0.75000001\nomega=0.5\n")
    nu = monodromy._nu(0.75000001, 0.5)
    assert 0.0 < 0.75 - (nu - 0.25) < 1e-8
    for sub in ("orbit", "hannay", "floquet"):
        code = main([sub, "--config", str(path), "--out", str(tmp_path / sub)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: 2 - |tr M| = ")
        assert "alpha_T/pi = 3.000 half-turns, resonance k = 3;" in err
        assert err.endswith(f"; Floquet frequency nu - omega/2 = "
                            f"{nu - 0.25:.12g} against k omega/2 = 0.75\n")


def test_untyped_error_propagates(tmp_path, monkeypatch):
    # only the package's typed failures map to exit 1; a plain ValueError
    # is a bug and must surface, not be reported as a numeric failure
    def broken(cfg, out_dir, fmt):
        raise ValueError("not a numeric failure")

    monkeypatch.setitem(cli._RUNNERS, "orbit", broken)
    with pytest.raises(ValueError, match="not a numeric failure"):
        run("orbit", parse_config(""), out_dir=tmp_path)


def fast_row_config():
    """The fast-turning Fourier draw 127 (witness.fast_row_draws) as a
    config, its coefficients written with repr."""
    sched = witness.fast_row_draws(127)[127]
    lines = [f"period={sched.period!r}"]
    for name, pairs in zip("abc", (sched.a_coeffs, sched.b_coeffs,
                                   sched.c_coeffs)):
        for part, values in zip(("cos", "sin"), zip(*pairs)):
            lines.append(f"{name}_{part}=" + ",".join(map(repr, values)))
    return "\n".join(lines) + "\n"


def expected_passes(sched, t0=0.0):
    """Step counts of the Gauss passes period_pass takes for sched: the
    pass on N steps and its estimate on ceil(N/2), both in one kernel
    call, then the pass on m N steps where the turn certificate asks for
    m > 1 (none of these passes fails its estimate)."""
    N = monodromy._step_count(sched)
    (Ms, _), = monodromy._gauss_passes(sched, (N,), t0)
    bound = monodromy._turn_bounds(sched, Ms).max()
    m = 1 if N >= 2 and bound < np.pi else max(2, int(bound / np.pi) + 1)
    return [N, (N + 1) // 2] + ([m * N] if m > 1 else [])


def test_one_period_pass_per_operation(tmp_path, monkeypatch):
    # each caller looks compute_monodromy up in its own namespace; calls
    # counts the calls of each operation, and passes the step count of
    # every Gauss pass: the pass on N steps, its estimate on N/2, and the
    # refined pass on m N where a step may turn the row by pi or more.
    # The fast-turning draw is refined 4 times, the others are certified
    # on N steps, the strongly squeezed point too
    calls, passes = [], []

    def counting(inner, record, arg):
        def counted(*args, **kwargs):
            record.append(arg(args, kwargs))
            return inner(*args, **kwargs)
        return counted

    for module in (cli, hannay, orbits, floquet):
        monkeypatch.setattr(module, "compute_monodromy", counting(
            module.compute_monodromy, calls, lambda args, kwargs: module))
    monkeypatch.setattr(monodromy, "_gauss_passes", counting(
        monodromy._gauss_passes, passes, lambda args, kwargs: args[1]))
    fourier = ("period=6.283185307179586\na_cos=1.0,0.05\n"
               "b_cos=1.0,-0.05\nc_sin=0.0,0.05\n")
    for schedule, m in (("epsilon=0.1\nomega=1.0\n", 1), (fourier, 1),
                        ("epsilon=0.8\nomega=0.55\n", 1),
                        (fast_row_config(), 4)):
        cfg = parse_config(schedule + "[orbit]\nsamples=64\n"
                           "[floquet]\nn=0,1,2\n[simulate]\nt1=20.0\n"
                           "samples=500\n")
        if m > 1:
            assert cfg.schedule == witness.fast_row_draws(127)[127]
        N = monodromy._step_count(cfg.schedule)
        expected = expected_passes(cfg.schedule)
        assert expected == [N, math.ceil(N / 2)] + ([m * N] if m > 1 else [])
        for sub in ("orbit", "hannay", "floquet", "simulate"):
            calls.clear()
            passes.clear()
            assert run(sub, cfg, out_dir=tmp_path / sub) == 0
            # the N pass and its N/2 estimate are one kernel call
            assert passes[0] == (N, (N + 1) // 2), sub
            assert [n for counts in passes for n in counts] == expected, sub
            # the orbit samples the pass of its one monodromy; simulate
            # samples a pass of its own and reads no monodromy
            assert len(calls) == {"orbit": 1, "hannay": 1, "floquet": 1,
                                  "simulate": 0}[sub], sub
    calls.clear()
    cfg = parse_config("[sweep]\neps=0.0,0.05,0.1\nomega=1.0")
    assert run("sweep", cfg, out_dir=tmp_path / "sweep") == 0
    assert len(calls) == 3


def test_one_period_pass_per_schedule_per_check_run(monkeypatch):
    # the checks read 7 distinct (schedule, t0) passes through many
    # consumers; one run computes each once, as the pass on N steps and
    # its estimate (expected_passes), and the next run computes all 7 again
    passes = []
    gauss_passes = monodromy._gauss_passes

    def counted(sched, counts, t0=0.0):
        passes.extend((sched, float(t0), N) for N in counts)
        return gauss_passes(sched, counts, t0)

    monkeypatch.setattr(monodromy, "_gauss_passes", counted)
    for _ in range(2):
        passes.clear()
        assert all(r.passed for r in checks.run_builtin_checks())
        taken = list(passes)
        inputs = list(dict.fromkeys((sched, t0) for sched, t0, _ in taken))
        assert len(inputs) == 7
        assert taken == [(sched, t0, n) for sched, t0 in inputs
                         for n in expected_passes(sched, t0)]
        # no pass outlives the run
        assert monodromy._SHARED.get() is None
    sched = ParameterSchedule.standard(0.05, 1.0)
    assert monodromy.period_pass(sched) is not monodromy.period_pass(sched)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def test_main_roundtrip(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("epsilon=0.1\nomega=1.0\n[orbit]\nsamples=32\n")
    code = main(["orbit", "--config", str(cfg_file),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "orbit_summary.json").exists()


def test_main_config_error_exit(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("epsilon=2.0\n")
    assert main(["orbit", "--config", str(cfg_file),
                 "--out", str(tmp_path)]) == 2


def test_main_config_errors_found_at_run_or_read(tmp_path, capsys):
    # a sweep with no omega list parses, and is refused when it runs
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("[sweep]\neps=0.1\n")
    assert main(["sweep", "--config", str(cfg_file),
                 "--out", str(tmp_path / "sweep")]) == 2
    assert ("config error (line 0): sweep requires non-empty eps and omega "
            "lists") in capsys.readouterr().err
    assert not (tmp_path / "sweep" / "sweep.csv").exists()
    assert main(["orbit", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path)]) == 2
    assert "error: cannot read config" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_default_simulate_route_matches_the_flow_route():
    # a 3-harmonic Fourier schedule over 10 periods: the default route of
    # a simulate config, read at the accepted steps of the witness flow at
    # tol 1e-12, must give the flow's rows within 1e-9 relative
    # (measured 7.7e-11 on 3993 rows)
    text = ("period=5.3\na_cos=1.0,0.05,0.02,0.01\na_sin=0.0,0.03,0.0,0.02\n"
            "b_cos=1.0,-0.04,0.01\nc_sin=0.0,0.05,0.01,0.02\nhbar=0.7\n")
    cfg = parse_config(text)
    assert cfg.options.method == dynamics.LINEAR
    state = dynamics.ExtendedState(q=0.7, p=-0.3, G=0.6, Pi=0.1)
    flow = witness.flow(state, 53.0, cfg.schedule, cfg.constants, tol=1e-12)
    linear = dynamics.integrate(state, 53.0, cfg.schedule, cfg.constants,
                                cfg.options, output_times=flow.t[1:-1])
    assert len(flow.t) > 2000 and np.array_equal(linear.t, flow.t)
    gap = np.abs(linear.y - flow.y) / np.maximum(1.0, np.abs(flow.y))
    assert float(gap.max()) <= 1e-9


def test_cli_import_leaves_the_check_suite_out():
    # only the check subcommand imports squeezephase.checks, so a fresh
    # interpreter importing the CLI has not loaded it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, squeezephase.cli; "
            "print('squeezephase.cli' in sys.modules, "
            "'squeezephase.checks' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert proc.stdout.split() == ["True", "False"]


def test_output_directory_error(tmp_path, capsys):
    # an existing file where the output directory should go
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert run("check", parse_config(""), out_dir=blocker) == 2
    assert "error: cannot create output directory" in capsys.readouterr().err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("epsilon=0.1\n")
    assert main(["hannay", "--config", str(cfg_file),
                 "--out", str(blocker / "sub")]) == 2
    assert "error: cannot create output directory" in capsys.readouterr().err
    assert blocker.read_text() == ""


def test_main_requires_config_except_check(tmp_path):
    assert main(["orbit", "--out", str(tmp_path)]) == 2
