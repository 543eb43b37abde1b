"""Spans around the calls into each squeezephase layer, kept in memory.

The benchmark wraps the public functions of the layers where the package
looks them up (module attributes), so the real CLI path runs unchanged
and every call into a layer opens a span.  Schedule evaluations are
counted by a ParameterSchedule subclass that the traced run puts into
each parsed config; each evaluation is charged to the innermost open span.
"""

from __future__ import annotations

import dataclasses
import time

# (module, attribute, span name): every namespace a layer function is
# looked up in by the package's own code
PATCHES = (
    ("cli", "parse_config", "cli.parse"),
    ("cli", "run", "cli.run"),
    ("params", "ellipticity_margin", "params.margin"),
    ("dynamics", "integrate", "dynamics.integrate"),
    ("monodromy", "compute_monodromy", "monodromy.compute"),
    ("cli", "compute_monodromy", "monodromy.compute"),
    ("orbits", "compute_monodromy", "monodromy.compute"),
    ("hannay", "compute_monodromy", "monodromy.compute"),
    ("floquet", "compute_monodromy", "monodromy.compute"),
    ("orbits", "find_periodic_orbit", "orbits.find"),
    ("floquet", "find_periodic_orbit", "orbits.find"),
    ("hannay", "hannay_report", "hannay.report"),
    ("hannay", "hannay_quadrature", "hannay.quadrature"),
    ("hannay", "hannay_trajectory_estimate", "hannay.trajectory"),
    ("floquet", "hannay_trajectory_estimate", "hannay.trajectory"),
    ("floquet", "floquet_reports", "floquet.reports"),
)


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    input: str
    op: str
    start: float
    end: float = 0.0
    evals: int = 0            # schedule evaluations charged to this span
    child_time: float = 0.0   # time covered by direct children
    steps: int = 0            # dynamics.integrate: accepted steps

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child_time


class Tracer:
    """Span recorder; enable() patches the package, disable() restores."""

    def __init__(self, package):
        self.package = package       # name -> imported squeezephase module
        self.spans = []
        self.stack = []
        self.input = ""              # shared by the operations of one input
        self.op = ""
        self._saved = []
        self._counting = _counting_class(package["params"].ParameterSchedule)

    def count_eval(self):
        if self.stack:
            self.stack[-1].evals += 1

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(len(tracer.spans), name,
                        parent.id if parent else None, tracer.input,
                        tracer.op, time.perf_counter())
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
            if name == "dynamics.integrate":
                span.steps = len(result.t) - 1
            elif name == "cli.parse":
                result.schedule = tracer.counting(result.schedule)
            return result
        traced.__wrapped__ = fn
        return traced

    def counting(self, sched):
        """Copy of sched whose eval() charges each call to the open span."""
        fields = {f.name: getattr(sched, f.name)
                  for f in dataclasses.fields(sched)}
        return self._counting(**fields, tracer=self)

    def enable(self):
        for module, attr, name in PATCHES:
            mod = self.package[module]
            original = getattr(mod, attr, None)
            if original is None:      # a layer function the package dropped
                continue
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))

    def disable(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def as_records(self):
        return [dataclasses.asdict(span) for span in self.spans]


def _counting_class(base):
    @dataclasses.dataclass(frozen=True)
    class CountingSchedule(base):
        tracer: object = dataclasses.field(default=None, compare=False,
                                           repr=False)

        def eval(self, t):
            self.tracer.count_eval()
            return super().eval(t)
    return CountingSchedule
