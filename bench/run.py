"""squeezephase benchmark: per-workload time of the squeeze-phase CLI.

Run from the root of a source checkout:

    python3 bench/run.py --workload standard-phases --seed 1 \
        --seconds 40 --trace 0

One process drives the load: it writes seeded config files, calls
squeezephase.cli.main in-process on them in repeated passes, and checks
every artifact against the independent references in reference.py.  One
operation is one CLI invocation together with its check; a nonzero exit
code, an exception or a failed check counts the operation as failed.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  --smoke runs every
workload (or the one named) at a tiny size with all its checks.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# a run repeats passes until the next one would end after --seconds, but
# makes at least this many, so every artifact is produced twice
MIN_PASSES = 2
# fresh interpreters timed for setup_s (after one that fills caches),
# spread over the run so that they sample the same machine state as it
SETUP_REPEATS = 8
PHASE_SUBS = ("simulate", "orbit", "hannay", "floquet")

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import squeezephase.cli as cli
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        cli.parse_config(fh.read())
print(time.perf_counter() - t0)
"""


def import_package():
    """Import squeezephase from the checkout's src/ (never another copy)."""
    src = ROOT / "src"
    if not (src / "squeezephase" / "__init__.py").is_file():
        raise SystemExit(f"error: no squeezephase sources under {src}")
    sys.path.insert(0, str(src))
    import squeezephase
    from squeezephase import (cli, dynamics, floquet, hannay, monodromy,
                              orbits, params)
    if Path(squeezephase.__file__).resolve().parent != src / "squeezephase":
        raise SystemExit(f"error: imported squeezephase from "
                         f"{squeezephase.__file__}, not {src}")
    return {"cli": cli, "dynamics": dynamics, "floquet": floquet,
            "hannay": hannay, "monodromy": monodromy, "orbits": orbits,
            "params": params}


class Runner:
    """Runs operations in-process and checks what they wrote."""

    def __init__(self, package, work):
        self.pkg = package
        self.work = work
        self.configs = work / "configs"
        self.configs.mkdir(parents=True, exist_ok=True)
        self.first = {}        # op name -> artifact bytes of its first run
        self.outputs = {}      # op name -> output directory
        self.attempted = 0
        self.failed = 0
        self.problems = []     # (op name, problem) of failed operations

    def config_path(self, op):
        path = self.configs / f"{op.name}.ini"
        if not path.exists():
            path.write_text(op.config, encoding="utf-8")
        return path

    def attempt(self, op):
        """Invoke op once and check it; returns the wall time of the call."""
        out = self.work / "out" / op.name
        shutil.rmtree(out, ignore_errors=True)
        argv = [op.sub, "--out", str(out)]
        if op.config:
            argv += ["--config", str(self.config_path(op))]
        stdout, stderr = io.StringIO(), io.StringIO()
        problems = []
        gc.collect()           # the checks' garbage is not the operation's
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = self.pkg["cli"].main(argv)
        except Exception as exc:  # an operation failure, not the bench's
            code = None
            problems.append(f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        self.outputs[op.name] = out
        if code is not None and code != 0:
            problems.append(f"exit code {code}: {stderr.getvalue().strip()}")
        if not problems:
            try:
                problems = op.check(out, stdout.getvalue(), self.outputs)
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"malformed artifact: {exc!r}"]
            problems += self._same_bytes(op, out)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [(op.name, p) for p in problems]
        return elapsed

    def _same_bytes(self, op, out):
        """Artifacts must be byte-identical across invocations of a config."""
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
        first = self.first.setdefault(op.name, files)
        if first.keys() != files.keys():
            return [f"artifacts {sorted(files)} differ from the first "
                    f"invocation's {sorted(first)}"]
        return [f"{name} is not byte-identical to the first invocation"
                for name in files if files[name] != first[name]]

    def run_pass(self, ops):
        """One pass; returns {op name: wall seconds}."""
        return {op.name: self.attempt(op) for op in ops}


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------

class SetupTimer:
    """Times import + parse_config of every config in a fresh interpreter
    (interpreter start-up itself excluded)."""

    def __init__(self, runner, ops):
        self.argv = [sys.executable, "-c", SETUP_CODE,
                     *[str(runner.config_path(op)) for op in ops if op.config]]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [self.env.get("PYTHONPATH")]
                                   if p])
        self.cwd = str(runner.work)
        self.times = []
        self.once()            # fills the bytecode cache; not counted
        self.times.clear()

    def once(self):
        proc = subprocess.run(self.argv, capture_output=True, text=True,
                              env=self.env, cwd=self.cwd, timeout=120,
                              check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed: {proc.stderr.strip()}")
        self.times.append(float(proc.stdout.split()[-1]))

    def catch_up(self, fraction):
        """Run set-ups until SETUP_REPEATS * fraction of them are done."""
        while len(self.times) < min(1.0, fraction) * SETUP_REPEATS:
            self.once()


def peak_rss_mb():
    """Peak resident set of this process or of any child it waited for
    (sweep pool workers, set-up interpreters), whichever is larger."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def keep_going(durations, elapsed, seconds):
    """Another pass (or round) if it is due, or should end by --seconds."""
    return len(durations) < MIN_PASSES or elapsed + durations[-1] <= seconds


def timed_run(runner, wl, seconds):
    setup = SetupTimer(runner, wl.ops)
    start = time.perf_counter()
    passes, totals = [], []
    while True:
        times = runner.run_pass(wl.ops)
        passes.append(times)
        totals.append(sum(times.values()))
        elapsed = time.perf_counter() - start
        setup.catch_up(elapsed / seconds if seconds else 1.0)
        if not keep_going(totals, elapsed, seconds):
            break
    setup.catch_up(1.0)
    by_sub = {}
    for op in wl.ops:
        by_sub.setdefault(op.sub, []).append(op)
    subs = {}
    for sub, ops in by_sub.items():
        sums = [sum(p[op.name] for op in ops) for p in passes]
        if sub == "sweep":
            points = sum(op.units for op in ops)
            subs["sweep_points_per_s"] = (
                statistics.median(points / s for s in sums), "points/s")
        else:
            subs[f"{sub}_s"] = (statistics.median(sums), "s")
    metrics = {"setup_s": (statistics.median(setup.times), "s"),
               "pass_s": (statistics.median(totals), "s")}

    return metrics, subs, totals


# ----------------------------------------------------------------------
# Per-layer metrics (traced run)
# ----------------------------------------------------------------------

# layers whose share of the traced pass is reported
SHARES = ("dynamics.integrate", "monodromy.compute", "orbits.find",
          "hannay.quadrature", "hannay.trajectory", "floquet.reports")
COUNTED = ("dynamics", "monodromy", "orbits", "hannay", "floquet")


def traced_pass(runner, tracer, ops):
    """Pass with spans; `check` builds its own schedules and is not traced."""
    times = {}
    for op in ops:
        if op.sub == "check":
            times[op.name] = runner.attempt(op)
            continue
        tracer.input, tracer.op = op.input_id, op.name
        tracer.enable()
        try:
            times[op.name] = runner.attempt(op)
        finally:
            tracer.disable()
    return times


def layer_counts(spans):
    counts = {f"{layer}.schedule_evals": 0 for layer in COUNTED}
    steps = 0
    for span in spans:
        layer = span.name.split(".")[0]
        if layer in COUNTED:
            counts[f"{layer}.schedule_evals"] += span.evals
        steps += span.steps
    counts["dynamics.accepted_steps"] = steps
    return counts


def traced_run(runner, wl, seconds):
    """Alternate untraced and traced passes; the traced ones give spans and
    counts, the pair gives the tracing overhead."""
    tracer = Tracer(runner.pkg)
    serial = wl.serial_sweep
    start = time.perf_counter()
    plain, traced, rounds, serial_times, pool_times = [], [], [], [], []
    counts = None
    while True:
        t_round = time.perf_counter()
        times = runner.run_pass(wl.ops)
        plain.append(sum(times.values()))
        first_span = len(tracer.spans)
        traced.append(sum(traced_pass(runner, tracer, wl.ops).values()))
        pass_counts = layer_counts(tracer.spans[first_span:])
        if counts is None:
            counts = pass_counts
        elif pass_counts != counts:
            raise SystemExit(f"error: work counts changed between traced "
                             f"passes: {counts} then {pass_counts}")
        if serial is not None:
            pool_times.append(times["sweep"])
            serial_times.append(runner.attempt(serial))
        rounds.append(time.perf_counter() - t_round)
        if not keep_going(rounds, time.perf_counter() - start, seconds):
            break

    spans = tracer.spans
    total = sum(traced)
    metrics = {}
    for name in SHARES:
        busy = sum(s.self_time for s in spans if s.name == name)
        metrics[f"{name}_pct"] = (100.0 * busy / total, "%")
    for key, value in counts.items():
        metrics[key] = (value, "count")
    steps = counts["dynamics.accepted_steps"]
    metrics["dynamics.evals_per_step"] = (
        counts["dynamics.schedule_evals"] / steps if steps else 0.0, "ratio")
    parse = [s.duration for s in spans if s.name == "cli.parse"]
    metrics["cli.parse_ms"] = (1e3 * statistics.fmean(parse), "ms")
    subs = {op.name: op.sub for op in wl.ops}
    write = [s.self_time for s in spans
             if s.name == "cli.run" and subs[s.op] in PHASE_SUBS]
    metrics["cli.write_ms"] = (1e3 * statistics.fmean(write), "ms")
    metrics.update(probe_layers(runner.pkg, wl.schedules))
    speedup = (statistics.median(serial_times)
               / statistics.median(pool_times)) if serial else 0.0
    metrics["cli.sweep_pool_speedup"] = (speedup, "x")
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0),
        "%")
    extra = {}
    if serial is not None:
        extra = {"cli.sweep_serial_s": (statistics.median(serial_times), "s"),
                 "cli.sweep_pool_s": (statistics.median(pool_times), "s")}
    return metrics, extra, tracer


def probe_layers(pkg, schedules, calls=2000):
    """Per-call cost of schedule evaluation, the extended-state RHS and
    the ellipticity margin, on the workload's own schedules."""
    params, dynamics = pkg["params"], pkg["dynamics"]
    eval_us, rhs_us, margin_ms = [], [], []
    for ref in schedules:
        if ref.kind == "standard":
            sched = params.ParameterSchedule.standard(ref.eps, ref.omega)
        else:
            sched = params.ParameterSchedule.fourier(ref.period, ref.a,
                                                     ref.b, ref.c)
        ts = [ref.period * i / calls for i in range(calls)]
        t0 = time.perf_counter()
        for t in ts:
            sched.eval(t)
        t1 = time.perf_counter()
        state = dynamics.ExtendedState(q=0.5, p=0.1, G=0.5, Pi=0.05, t=0.3)
        for _ in range(calls):
            dynamics.eom_rhs(state, sched)
        t2 = time.perf_counter()
        for _ in range(3):
            params.ellipticity_margin(sched)
        t3 = time.perf_counter()
        eval_us.append(1e6 * (t1 - t0) / calls)
        rhs_us.append(1e6 * (t2 - t1) / calls)
        margin_ms.append(1e3 * (t3 - t2) / 3)
    return {"params.eval_us": (statistics.fmean(eval_us), "us"),
            "dynamics.rhs_us": (statistics.fmean(rhs_us), "us"),
            "params.margin_ms": (statistics.fmean(margin_ms), "ms")}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def run_workload(pkg, name, seed, seconds, trace, smoke=False):
    """Build, run and check one workload; returns (result, report lines)."""
    wl = workloads.build(name, seed, smoke=smoke)
    work = HERE / "_runs" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(pkg, work)
    try:
        report = [f"# workload {name}, seed {seed}"]
        report += [f"#   input {line}" for line in workloads.describe(wl)]
        if trace:
            metrics, extra, tracer = traced_run(runner, wl, seconds)
            trace_path = HERE / "_runs" / f"trace-{name}-seed{seed}.json"
            trace_path.write_text(json.dumps(tracer.as_records()) + "\n",
                                  encoding="utf-8")
            report.append(f"# spans written to {trace_path}")
        else:
            metrics, extra, totals = timed_run(runner, wl, seconds)
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
            report.append(f"# {len(totals)} passes, seconds each: "
                          + " ".join(f"{t:.3f}" for t in totals))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, (value, unit) in {**metrics, **extra}.items():
        report.append(f"{key:28s} {value:14.6g} {unit}")
    report.append(f"operations attempted {runner.attempted}, "
                  f"failed {runner.failed}")
    report += [f"FAILED {op}: {problem}" for op, problem in runner.problems]
    # failed operations are counted in "failed"; "correct" says whether
    # the verdicts on the others can be trusted, i.e. the references hold
    reference_problems = wl.reference_problems()
    report += [f"REFERENCE {problem}" for problem in reference_problems]
    result = {"correct": not reference_problems,
              "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, every workload unless one is named")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    pkg = import_package()
    names = [args.workload] if args.workload else list(workloads.NAMES)
    seconds = 0.0 if args.smoke else args.seconds
    results = []
    for name in names:
        result, report = run_workload(pkg, name, args.seed, seconds,
                                      bool(args.trace), smoke=args.smoke)
        print("\n".join(report), flush=True)
        results.append(result)
    if args.smoke:
        result = {"correct": all(r["correct"] for r in results),
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results), "metrics": {}}
        print(json.dumps(result))
        return 0 if result["failed"] == 0 and result["correct"] else 1
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
