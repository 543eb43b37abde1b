"""Configuration parsing, subcommand dispatch, and machine-readable output.

Config files are plain UTF-8 key=value lines with '#' comments; bare keys
before any [section] header select the schedule, hbar, and integrator;
sections hold subcommand-specific fields.  All numeric output is written
with 17 significant digits and '\\n' line endings so identical configs
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import checks, dynamics, floquet, hannay, orbits
from .errors import (ConfigError, ConvergenceError, DomainError,
                     IntegrationError, NonEllipticError)
from .monodromy import compute_monodromy
from .params import Constants, ParameterSchedule

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2

SUBCOMMANDS = ("simulate", "orbit", "hannay", "floquet", "sweep", "check")


# ----------------------------------------------------------------------
# Config model
# ----------------------------------------------------------------------

@dataclass
class SimulateConfig:
    q0: float = 0.0
    p0: float = 0.0
    g0: float = 0.5
    pi0: float = 0.0
    t1: float | None = None      # defaults to one period
    samples: int = 256


@dataclass
class OrbitConfig:
    samples: int = 1024


@dataclass
class FloquetConfig:
    n: tuple = (0,)


@dataclass
class SweepConfig:
    eps: tuple = ()
    omega: tuple = ()
    # sweeps run in-process whatever its value: kept, 0 or 1, only until
    # the benchmark stops writing workers=1
    workers: int = 0


@dataclass
class RunConfig:
    schedule: ParameterSchedule
    constants: Constants
    options: dynamics.IntegratorOptions      # steers simulate only
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    orbit: OrbitConfig = field(default_factory=OrbitConfig)
    floquet: FloquetConfig = field(default_factory=FloquetConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)


# key -> parser kind; sections not listed reject every key
_GLOBAL_KEYS = {
    "epsilon": "float", "omega": "float", "hbar": "float",
    "method": "str", "step": "float", "period": "float",
    "a_cos": "float_list", "a_sin": "float_list",
    "b_cos": "float_list", "b_sin": "float_list",
    "c_cos": "float_list", "c_sin": "float_list",
}
_SECTION_KEYS = {
    "simulate": {"q0": "float", "p0": "float", "g0": "float", "pi0": "float",
                 "t1": "float", "samples": "int"},
    "orbit": {"samples": "int"},
    "floquet": {"n": "int_list"},
    "sweep": {"eps": "float_list", "omega": "float_list", "workers": "int"},
}

_FOURIER_KEYS = ("period", "a_cos", "a_sin", "b_cos", "b_sin",
                 "c_cos", "c_sin")


def _parse_scalar(kind, raw):
    if kind == "str":
        return raw
    if kind == "int":
        return int(raw)
    if kind == "float":
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(raw)
        return value
    if kind == "float_list":
        return tuple(_parse_scalar("float", part) for part in raw.split(","))
    if kind == "int_list":
        return tuple(int(part) for part in raw.split(","))
    raise AssertionError(kind)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config; raises ConfigError listing every
    problem (line number, message), not just the first."""
    errors = []
    values = {}          # (section, key) -> value
    lines = {}           # (section, key) -> line number
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTION_KEYS:
                errors.append((lineno, f"unknown section [{section}]"))
                section = "__invalid__"
            continue
        if "=" not in line:
            errors.append((lineno, f"expected key=value, got {line!r}"))
            continue
        key, raw = (part.strip() for part in line.split("=", 1))
        if section == "__invalid__":
            continue
        schema = _GLOBAL_KEYS if section is None else _SECTION_KEYS[section]
        where = "" if section is None else f" in [{section}]"
        if key not in schema:
            errors.append((lineno, f"unknown key {key!r}{where}"))
            continue
        lines[(section, key)] = lineno
        try:
            values[(section, key)] = _parse_scalar(schema[key], raw)
        except ValueError:
            errors.append((lineno, f"malformed value for {key}: {raw!r}"))

    cfg = _build_config(values, lines, errors)
    if errors:
        raise ConfigError(sorted(errors))
    return cfg


def _get(values, section, key, default=None):
    return values.get((section, key), default)


def _build_config(values, lines, errors):
    """Build the RunConfig from the parsed values; lines holds the line of
    every known key given, also of those whose value failed to parse."""
    def complain(section, key, msg):
        errors.append((lines.get((section, key), 0), msg))

    # ---- schedule -------------------------------------------------
    has_standard = (None, "epsilon") in values or (None, "omega") in values
    has_fourier = any((None, k) in values for k in _FOURIER_KEYS)
    # a schedule key that failed to parse is reported already; a schedule
    # built without it would report a second, spurious error
    fourier_malformed = any(
        (None, k) in lines and (None, k) not in values for k in _FOURIER_KEYS)
    schedule = ParameterSchedule.standard(0.0, 1.0)
    if has_standard and has_fourier:
        complain(None, "period",
                 "cannot mix epsilon/omega with fourier schedule keys")
    elif has_fourier and not fourier_malformed:
        period = _get(values, None, "period")
        if period is None:
            errors.append((0, "fourier schedule requires period"))
        elif period <= 0:
            complain(None, "period", "period must be > 0")
        else:
            def pairs(name):
                cos = _get(values, None, f"{name}_cos", (0.0,))
                sin = _get(values, None, f"{name}_sin", ())
                n = max(len(cos), len(sin))
                cos = cos + (0.0,) * (n - len(cos))
                sin = sin + (0.0,) * (n - len(sin))
                return tuple(zip(cos, sin))
            try:
                schedule = ParameterSchedule.fourier(
                    period, pairs("a"), pairs("b"), pairs("c"))
            except NonEllipticError as exc:
                complain(None, "period", str(exc))
    else:
        epsilon = _get(values, None, "epsilon", 0.0)
        omega = _get(values, None, "omega", 1.0)
        if not 0.0 <= epsilon < 1.0:
            complain(None, "epsilon", "epsilon must be < 1 and >= 0")
        elif not omega > 0.0:
            complain(None, "omega", "omega must be > 0")
        else:
            schedule = ParameterSchedule.standard(epsilon, omega)

    # ---- constants, integrator and sections -------------------------
    def build(cls, section=None):
        # from the keys given only, so that the defaults and rules of cls
        # are stated once, in cls; each key is tried alone, so its error
        # goes on its own line (no rule of cls spans two config keys)
        given = {f.name: values[(section, f.name)] for f in fields(cls)
                 if (section, f.name) in values}
        for name, value in list(given.items()):
            try:
                cls(**{name: value})
            except ValueError as exc:
                errors.append((lines[(section, name)], str(exc)))
                del given[name]
        return cls(**given)

    constants = build(Constants)
    options = build(dynamics.IntegratorOptions)

    simulate = build(SimulateConfig, "simulate")
    if simulate.samples < 1:
        complain("simulate", "samples", "samples must be >= 1")
    if not simulate.g0 > dynamics.G_FLOOR:
        complain("simulate", "g0",
                 f"g0 must be > {dynamics.G_FLOOR}, the width floor")
    if simulate.t1 is not None and simulate.t1 <= 0:
        complain("simulate", "t1", "t1 must be > 0")

    orbit = build(OrbitConfig, "orbit")
    if orbit.samples < 8:
        complain("orbit", "samples", "samples must be >= 8")

    floquet_cfg = build(FloquetConfig, "floquet")
    if any(n < 0 for n in floquet_cfg.n):
        complain("floquet", "n", "state numbers must be >= 0")
    if len(set(floquet_cfg.n)) < len(floquet_cfg.n):
        complain("floquet", "n", "state numbers must not repeat")

    sweep = build(SweepConfig, "sweep")
    if any(not 0.0 <= e < 1.0 for e in sweep.eps):
        complain("sweep", "eps", "sweep eps values must lie in [0, 1)")
    if any(w <= 0.0 for w in sweep.omega):
        complain("sweep", "omega", "sweep omega values must be > 0")
    if sweep.workers not in (0, 1):
        complain("sweep", "workers", "workers must be 0 or 1")

    return RunConfig(schedule=schedule, constants=constants, options=options,
                     simulate=simulate, orbit=orbit, floquet=floquet_cfg,
                     sweep=sweep)


# ----------------------------------------------------------------------
# Deterministic writers (17 significant digits, '\n' endings)
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    if not isinstance(value, float):  # np.float64 is a float
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        value = float(value)
    if math.isnan(value):
        return "null"
    return format(value, ".17g")


def _dump_json(obj, indent=0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        body = ",\n".join(
            f'{pad}  "{key}": {_dump_json(val, indent + 2).lstrip()}'
            for key, val in obj.items())
        return f"{pad}{{\n{body}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        body = ", ".join(_dump_json(v).strip() for v in obj)
        return f"{pad}[{body}]"
    return pad + _fmt(obj)


def _write_json(path: Path, obj):
    path.write_text(_dump_json(obj) + "\n", encoding="utf-8", newline="\n")


def _write_csv(path: Path, header, rows):
    # a row of finite Python floats is one %-format, which spells each as
    # _fmt does; a row with another cell type or an "n" (nan, inf) falls
    # back to _fmt
    fmt = ",".join(["%.17g"] * len(header))
    out = [",".join(header)]
    for row in rows:
        line = None
        if all(type(v) is float for v in row):
            line = fmt % tuple(row)
        if line is None or "n" in line:
            line = ",".join(map(_fmt, row))
        out.append(line)
    path.write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")


def _write_table(out_dir: Path, stem: str, header, rows, fmt: str):
    if fmt == "json":
        cols = list(zip(*rows)) if rows else [[] for _ in header]
        obj = {name: list(col) for name, col in zip(header, cols)}
        _write_json(out_dir / f"{stem}.json", obj)
        return out_dir / f"{stem}.json"
    _write_csv(out_dir / f"{stem}.csv", header, rows)
    return out_dir / f"{stem}.csv"


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _run_simulate(cfg: RunConfig, out_dir: Path, fmt: str):
    sc = cfg.simulate
    t1 = sc.t1 if sc.t1 is not None else cfg.schedule.period
    state0 = dynamics.ExtendedState(q=sc.q0, p=sc.p0, G=sc.g0, Pi=sc.pi0)
    grid = np.linspace(0.0, t1, sc.samples + 1)
    traj = dynamics.integrate(state0, t1, cfg.schedule, cfg.constants,
                              cfg.options, output_times=grid[1:-1])
    t = traj.t
    q, p, G, Pi, lam_G, lam_D = traj.y.T
    I, J = dynamics.action_pair(q, p, G, Pi)
    a, b, c = cfg.schedule.sample(t)
    H = dynamics.h_eff(q, p, G, Pi, a, b, c, cfg.constants.hbar)
    header = ["t", "q", "p", "G", "Pi", "lambda_G", "lambda_D",
              "I", "J", "H_eff"]
    rows = np.column_stack([t, q, p, G, Pi, lam_G, lam_D, I, J, H]).tolist()
    path = _write_table(out_dir, "trajectory", header, rows, fmt)
    return [path]


def _run_orbit(cfg: RunConfig, out_dir: Path, fmt: str):
    orb = orbits.find_periodic_orbit(cfg.schedule,
                                     n_samples=cfg.orbit.samples)
    rows = [[t, g, pi] for t, g, pi in zip(orb.t, orb.G, orb.Pi)]
    paths = [_write_table(out_dir, "orbit", ["t", "G", "Pi"], rows, fmt)]
    summary = {
        "G0": orb.G0, "Pi0": orb.Pi0, "residual": orb.residual,
        "lambda_G": orb.lambda_G_cycle, "lambda_D": orb.lambda_D_cycle,
    }
    _write_json(out_dir / "orbit_summary.json", summary)
    paths.append(out_dir / "orbit_summary.json")
    return paths


def _run_hannay(cfg: RunConfig, out_dir: Path, fmt: str):
    result = hannay.hannay_report(cfg.schedule)
    _write_json(out_dir / "hannay.json", asdict(result))
    return [out_dir / "hannay.json"]


def _run_floquet(cfg: RunConfig, out_dir: Path, fmt: str):
    reports = floquet.floquet_reports(cfg.schedule, cfg.floquet.n,
                                      consts=cfg.constants)
    paths = []
    for rep in reports:
        path = out_dir / f"floquet_n{rep.n}.json"
        _write_json(path, asdict(rep))
        paths.append(path)
    return paths


def _sweep_point(eps, omega):
    sched = ParameterSchedule.standard(eps, omega)
    mono = compute_monodromy(sched)
    theta_closed = hannay.hannay_closed_form(sched)
    lam_g0, _ = orbits.cycle_phases(mono)
    return [eps, omega, theta_closed, hannay.trajectory_angle(mono),
            mono.rho, lam_g0, lam_g0 + 0.5 * theta_closed]


def _run_sweep(cfg: RunConfig, out_dir: Path, fmt: str):
    sw = cfg.sweep
    if not sw.eps or not sw.omega:
        raise ConfigError([(0, "sweep requires non-empty eps and omega lists")])
    rows = [_sweep_point(e, w) for e in sw.eps for w in sw.omega]
    header = ["eps", "omega", "theta_closed", "theta_traj", "rho",
              "lambda_G_R_n0", "residual_45_n0"]
    return [_write_table(out_dir, "sweep", header, rows, fmt)]


def _run_check(cfg, out_dir, fmt):
    results = checks.run_builtin_checks()
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        print(f"{mark} {res.name}: {res.detail}")
    if not all(res.passed for res in results):
        raise ConvergenceError("one or more built-in checks failed")
    return []


_RUNNERS = {
    "simulate": _run_simulate,
    "orbit": _run_orbit,
    "hannay": _run_hannay,
    "floquet": _run_floquet,
    "sweep": _run_sweep,
    "check": _run_check,
}


def run(subcommand: str, config: RunConfig, out_dir=".", fmt="csv") -> int:
    """Execute one subcommand; returns the process exit code."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        paths = _RUNNERS[subcommand](config, out, fmt)
    except ConfigError as exc:
        for line, msg in exc.errors:
            print(f"config error (line {line}): {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonEllipticError, ConvergenceError, IntegrationError,
            DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="squeeze-phase",
        description="Squeezed-state phases of the driven oscillator")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    if args.config is None:
        if args.subcommand != "check":
            print("error: --config is required", file=sys.stderr)
            return EXIT_CONFIG
        text = ""
    else:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        config = parse_config(text)
    except ConfigError as exc:
        for line, msg in exc.errors:
            print(f"config error (line {line}): {msg}", file=sys.stderr)
        return EXIT_CONFIG
    return run(args.subcommand, config, out_dir=args.out, fmt=args.format)


if __name__ == "__main__":
    raise SystemExit(main())
