"""Configuration parsing, subcommand dispatch, and machine-readable output.

Config files are plain UTF-8 key=value lines with '#' comments; bare keys
before any [section] header select the schedule, hbar, and integrator;
sections hold subcommand-specific fields.  All numeric output is written
with 17 significant digits and '\\n' line endings so identical configs
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import dynamics, floquet, hannay, orbits
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
    samples: int = orbits.DEFAULT_SAMPLES


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


# rows of a float table spelled per string _csv_lines yields
_CSV_CHUNK = 512


def _split(x):
    """Dekker's split x = hi + lo, hi on the top 26 bits of x."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


# 10^k for k = 0..20, exact in binary64, and its Dekker halves
_POW10 = np.array([float(10 ** k) for k in range(21)])
_POW10_HI, _POW10_LO = _split(_POW10)

# The tables below are built on first use, so that a process that writes
# no table does not pay for them.  They use only the float64, int64 divmod
# and uint64 word operations that the writer and the physics run anyway:
# each further numpy loop a process runs adds ~64 KB of resident code.


def _read_only(*arrays):
    """The arrays, read-only: a cached table goes to every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def _digit_tables():
    """(digits, zeros) over 0..9999: the four ASCII digits as a word, the
    first digit in the low byte, and their trailing zeros."""
    n = np.arange(10000)
    digits = np.zeros(10000, "<u8")
    for shift in (24, 16, 8, 0):
        n, d = np.divmod(n, 10)
        digits |= (d + ord("0")).astype("<u8") << np.uint64(shift)
    n = np.arange(10000.0)
    zeros = sum(np.floor(n / 10 ** j) * 10 ** j == n for j in range(1, 5))
    return _read_only(digits, zeros.astype(np.intp))


@functools.cache
def _row_layouts():
    """(keep, keep_shifted, fixed): 32-byte masks and bytes of a cell, as
    rows of four little-endian words, at row (X + 4)*17 + z for the
    decimal exponent X = -4..16 and z trailing zeros of the 17 digits.

    A cell's digit row holds its sign at byte 0, the leading digit at byte
    7 and the other 16 digits at bytes 8-23; its shifted row is the digit
    row one byte up.  The cell is (row & keep) | (shifted & keep_shifted)
    | fixed: the sign, "0." and -X - 1 zeros at bytes 1.. for X < 0,
    digits 0..X in place, the point after them and the rest one byte up
    for X >= 0, the trailing zeros of the fraction dropped (the point too
    when no fraction digit is left), and the separator ',' at byte 31.
    Every other byte is NUL."""
    X = np.arange(-4.0, 17.0)[:, None, None]
    last = 16.0 - np.arange(17.0)[:, None]     # the last nonzero digit
    b = np.arange(32.0)
    fraction = (X >= 0) & (last > X)
    point = np.where(fraction, 8 + X, 32.0)
    end = np.where(X < 0, 8 + last, np.where(fraction, 9 + last, 8 + X))
    keep = (b < 1) | ((b >= 7) & (b < np.minimum(point, end)))
    keep_shifted = (b > point) & (b < end)
    prefix = (X < 0) & (b >= 1) & (b <= 1 - X)
    dot = (prefix & (b == 2)) | (b == point)
    fixed = (dot * float(ord(".")) + (prefix & ~dot) * float(ord("0"))
             + (b == 31) * float(ord(",")))
    return _read_only(*(
        np.broadcast_to(t, fixed.shape).astype(np.uint8).reshape(-1, 32)
        .view("<u8") for t in (keep * 255.0, keep_shifted * 255.0, fixed)))


def _two_product(a, k):
    """(hi, lo) with hi + lo = a*10^k exactly, hi = fl(a*10^k) (Dekker)."""
    hi = a * np.take(_POW10, k)
    ah, al = _split(a)
    bh, bl = np.take(_POW10_HI, k), np.take(_POW10_LO, k)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _outside(hi, lo):
    """Whether hi + lo lies outside [1e16, 1e17)."""
    return ((hi < 1e16) | ((hi == 1e16) & (lo < 0))
            | (hi > 1e17) | ((hi == 1e17) & (lo >= 0)))


def _mantissas(x):
    """(X, m, slow) of the cells x (_csv_lines): the decimal exponent, the
    17-digit mantissa and the indices of the cells _fmt spells."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    a[~fast] = 1.0
    X = np.floor(np.log10(a)).astype(np.intp)
    np.clip(X, -4, 16, out=X)
    hi, lo = _two_product(a, 16 - X)
    fix = np.flatnonzero(_outside(hi, lo))
    if fix.size:
        X[fix] += np.where(hi[fix] > 3e16, 1, -1)
        hi[fix], lo[fix] = _two_product(a[fix], 16 - X[fix])
        fast[fix[_outside(hi[fix], lo[fix])]] = False
    m = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    slow = np.flatnonzero(~fast)
    m[slow] = 10 ** 16
    X[slow] = 0
    return X, m, slow


def _digits8(v):
    """(word, zeros): the eight ASCII digits of v < 10^8 as a word, and
    their trailing zeros."""
    digits, zeros4 = _digit_tables()
    high, low = np.divmod(v, 10 ** 4)
    word = np.take(digits, high) | np.take(digits, low) << np.uint64(32)
    zeros = np.take(zeros4, low)
    # zeros >> 2 is 1 where all four low digits are zeros, else 0
    return word, zeros + (zeros >> 2) * np.take(zeros4, high)


def _digit_rows(x, m):
    """(row, zeros): the digit rows of the cells x with mantissas m
    (_row_layouts), and the trailing zeros of m."""
    lead, m = np.divmod(m, 10 ** 16)
    high, low = np.divmod(m, 10 ** 8)
    row = np.empty((len(x), 4), "<u8")
    row[:, 0] = ((lead + ord("0")).astype("<u8") << np.uint64(56)
                 | (x < 0) * np.uint64(ord("-")))
    row[:, 1], zeros = _digits8(high)
    row[:, 2], zeros_low = _digits8(low)
    row[:, 3] = 0
    # zeros_low >> 3 is 1 where all eight low digits are zeros, else 0
    return row, zeros_low + (zeros_low >> 3) * zeros


def _spell(block):
    """The CSV text of the rows of a 2-D float64 array (_csv_lines)."""
    x = block.ravel()
    # a nan cell compares False; some numpy versions flag a signaling one
    with np.errstate(invalid="ignore"):
        X, m, slow = _mantissas(x)
        cells, zeros = _digit_rows(x, m)
    c = (X + 4) * 17 + zeros
    keep, keep_shifted, fixed = _row_layouts()
    shifted = np.zeros_like(cells)
    shifted.view(np.uint8).ravel()[1:] = cells.view(np.uint8).ravel()[:-1]
    shifted &= np.take(keep_shifted, c, axis=0)
    cells &= np.take(keep, c, axis=0)
    cells |= shifted
    cells |= np.take(fixed, c, axis=0)
    cols = block.shape[1]
    cells[cols - 1::cols, 3] ^= np.uint64((ord(",") ^ ord("\n")) << 56)
    if slow.size:
        spelled = b"".join(_fmt(v).encode().ljust(24, b"\0")
                           for v in x[slow].tolist())
        cells[slow, :3] = np.frombuffer(spelled, "<u8").reshape(-1, 3)
    return cells.astype("<u8", copy=False).tobytes().translate(
        None, b"\0").decode("ascii")


def _csv_lines(table):
    """The lines of a 2-D float64 array, one string per _CSV_CHUNK rows,
    each cell spelled byte for byte as _fmt spells it.

    A cell x with 1e-4 <= |x| < 1e17 spells as '%.17g' does in fixed
    notation, from its decimal exponent X (-4..16) and the 17-digit
    mantissa m = round(|x|*10^(16 - X)) in [1e16, 1e17).  X starts from
    floor(log10|x|).  10^(16 - X) is exact, so Dekker's two-product gives
    y = |x|*10^(16 - X) exactly as hi + lo, hi = fl(y).  A start one
    decade off leaves y outside [1e16, 1e17), which hi and the sign of lo
    show exactly; X moves once, and a cell still outside falls back.  In
    [1e16, 1e17) hi is an even integer (its ulp is 2 or more) and |lo| is
    at most half an ulp, so m = hi + rint(lo) is y rounded to the nearest
    integer; on an exact tie (frac(lo) = 1/2, e.g. 10001*2^-20) rint
    rounds lo to even, so m is even, as '%.17g' rounds ties.  m never
    carries to 1e17: the largest double below a power of ten 10^-3..10^17
    lies more than 8e-17 of it below, past the half unit 5e-18 of the
    17th digit.  The digits come in
    4-digit groups from a table; the point, the "0.000" prefix and the
    trailing zeros dropped as '%.17g' drops them come from the layouts of
    _row_layouts.

    Falls back to _fmt, cell by cell: 0 and -0, nan (spelled null), inf
    and -inf, and every |x| outside [1e-4, 1e17), the scientific
    spellings."""
    table = np.asarray(table, dtype=np.float64)
    for i in range(0, len(table), _CSV_CHUNK):
        yield _spell(table[i:i + _CSV_CHUNK])


def _write_table(out_dir: Path, stem: str, header, table, fmt: str):
    """A 2-D float array as {stem}.csv (_csv_lines), or as {stem}.json of
    columns."""
    if fmt == "json":
        obj = dict(zip(header, table.T.tolist()))
        _write_json(out_dir / f"{stem}.json", obj)
        return out_dir / f"{stem}.json"
    path = out_dir / f"{stem}.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_csv_lines(table))
    return path


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
    table = np.column_stack([t, q, p, G, Pi, lam_G, lam_D, I, J, H])
    path = _write_table(out_dir, "trajectory", header, table, fmt)
    return [path]


def _run_orbit(cfg: RunConfig, out_dir: Path, fmt: str):
    orb = orbits.find_periodic_orbit(cfg.schedule,
                                     n_samples=cfg.orbit.samples)
    table = np.column_stack([orb.t, orb.G, orb.Pi])
    paths = [_write_table(out_dir, "orbit", ["t", "G", "Pi"], table, fmt)]
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
    table = np.array([_sweep_point(e, w) for e in sw.eps for w in sw.omega])
    header = ["eps", "omega", "theta_closed", "theta_traj", "rho",
              "lambda_G_R_n0", "residual_45_n0"]
    return [_write_table(out_dir, "sweep", header, table, fmt)]


def _run_check(cfg, out_dir, fmt):
    # imported here: no other subcommand pays for the check suite
    from . import checks
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
