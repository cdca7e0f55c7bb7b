"""Spans and counts recorded around the public functions the CLI calls.

Nothing in src/ changes: ``Instrument.patched`` replaces module
attributes for the length of one pass and puts the originals back.  The
CLI imports its callees by name, so the ``voss.cli`` attributes are the
layer boundaries; ``voss.benchmark.solve`` and the ``write_csv`` and
``rolling_median``/``align`` attributes of their modules also catch the
calls made inside the library.

Traced or not, every solver result goes through the checks.  That
harness work is timed into ``excluded_s``, which the caller takes out
of wall_s.  With tracing on every boundary also records a span (id,
parent, name, start, end) in memory; ``layer_metrics`` derives each layer's self time from them: a
span's duration minus the time its child spans cover.  Harness work is
recorded as spans named HARNESS, which count against no layer and are
subtracted from their ancestors.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter

HARNESS = "harness"


def _count_parse(c, model, args):
    c["feeder.nodes"] += len(model.nodes)
    c["feeder.loads"] += len(model.loads)


def _count_solve(c, solution, args):
    c["powerflow.sweeps"] += solution.iterations
    c["powerflow.solve_calls"] += 1
    c[f"sweeps:{solution.model.name}"] = solution.iterations


def _count_study(c, rows, args):
    c["benchmark.rows"] += len(rows)


def _count_ingest(c, series, args):
    c["sensors.samples"] += sum(len(s.samples) for s in series)
    c["sensors.duplicates"] += sum(s.duplicates_dropped for s in series)


def _count_curves(c, curves, args):
    c["sensors.points"] += sum(len(curve.points) for curve in curves)
    c["sensors.flagged"] += sum(1 for curve in curves for p in curve.points if p.flags)


def _count_rows(c, result, args):
    c["io.rows_written"] += len(args[2])


# (module, attribute, span name, counter)
BOUNDARIES = [
    ("voss.cli", "main", "cli", None),
    ("voss.cli", "parse_feeder", "feeder.parse", _count_parse),
    ("voss.cli", "expand_distributed_loads", "feeder.rewrite", None),
    ("voss.benchmark", "split_distributed_loads_to_ends", "feeder.rewrite", None),
    ("voss.cli", "solve", "powerflow.solve", _count_solve),
    ("voss.benchmark", "solve", "powerflow.solve", _count_solve),
    ("voss.cli", "run_single_segment_study", "benchmark.study", _count_study),
    ("voss.cli", "run_multi_segment_study", "benchmark.study", _count_study),
    ("voss.cli", "sweep_rho", "line_oracle.sweep", None),
    ("voss.cli", "parse_chain_config", "sensors.ingest", None),
    ("voss.cli", "ingest_csv", "sensors.ingest", _count_ingest),
    ("voss.cli", "loss_curve", "sensors.curve", _count_curves),
    ("voss.sensors", "rolling_median", "sensors.rolling_median", None),
    ("voss.sensors", "align", "sensors.align", None),
    ("voss.cli", "write_voltages_csv", "io.write", None),
    ("voss.cli", "write_flows_csv", "io.write", None),
    ("voss.cli", "write_comparison_csv", "io.write", None),
    ("voss.cli", "write_plot_long_csv", "io.write", None),
    ("voss.cli", "write_sweep_csv", "io.write", None),
    ("voss.cli", "write_loss_curve_csv", "io.write", None),
    ("voss.powerflow", "write_csv", "io.write", _count_rows),
    ("voss.benchmark", "write_csv", "io.write", _count_rows),
    ("voss.line_oracle", "write_csv", "io.write", _count_rows),
    ("voss.sensors", "write_csv", "io.write", _count_rows),
]

TIMES = [
    "feeder.parse", "feeder.rewrite", "powerflow.solve", "benchmark.study",
    "sensors.ingest", "sensors.curve", "sensors.rolling_median", "sensors.align",
    "line_oracle.sweep", "io.write",
]
SUBCOMMANDS = ["solve", "benchmark", "oracle", "sensors"]
COUNTS = [
    "feeder.nodes", "feeder.loads", "powerflow.sweeps", "powerflow.solve_calls",
    "benchmark.rows", "sensors.samples", "sensors.duplicates", "sensors.points",
    "sensors.flagged", "io.rows_written",
]


class Instrument:
    """Wraps the layer boundaries of one pass; owns its spans and counts.

    ``check(solution)`` is called on every solver result and returns a
    list of problems; they collect in ``problems`` until ``take``.
    """

    def __init__(self, check) -> None:
        self.check = check
        self.tracing = False
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.excluded_s = 0.0
        self.problems: list = []

    def _span(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            label = f"cli.{args[0][0]}" if name == "cli" else name
            record = [sid, self.stack[-1] if self.stack else None, label,
                      time.perf_counter(), None]
            self.spans.append(record)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                counter(self.counts, result, args)
            return result

        return traced

    def harness(self, fn, *args):
        """Run benchmark work inside a pass, timed out of every layer."""
        start = time.perf_counter()
        result = self._span(HARNESS, fn, None)(*args) if self.tracing else fn(*args)
        self.excluded_s += time.perf_counter() - start
        return result

    def _wrap(self, name: str, fn, counter):
        inner = self._span(name, fn, counter) if self.tracing else fn
        solver = name == "powerflow.solve"

        def wrapped(*args, **kwargs):
            result = inner(*args, **kwargs)
            if solver:
                self.problems += self.harness(self.check, result)
            return result

        return wrapped

    @contextlib.contextmanager
    def patched(self, tracing: bool):
        """Install the wrappers for one pass, then restore the originals."""
        self.tracing = tracing
        self.spans, self.counts, self.excluded_s = [], Counter(), 0.0
        saved = []
        for module_name, attr, name, counter in BOUNDARIES:
            if name == "cli" and not tracing:
                continue
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            wrapped = self._span(name, fn, counter) if name == "cli" else \
                self._wrap(name, fn, counter)
            setattr(module, attr, wrapped)
        try:
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def take(self) -> list:
        problems, self.problems = self.problems, []
        return problems


def span_times(spans: list) -> tuple:
    """(self time per span name, harness time inside each span) from spans."""
    child_s = [0.0] * len(spans)
    harness_in = [0.0] * len(spans)
    for sid, parent, name, start, end in reversed(spans):
        if parent is not None:
            child_s[parent] += end - start
            harness_in[parent] += (end - start) if name == HARNESS else harness_in[sid]
    self_s: Counter = Counter()
    for sid, parent, name, start, end in spans:
        self_s[name] += end - start - child_s[sid]
    return self_s, harness_in


def layer_metrics(spans: list, counts: Counter) -> dict:
    """Per-layer metrics of one traced pass, without their units."""
    self_s, harness_in = span_times(spans)
    out = {f"{name}_s": self_s.get(name, 0.0) for name in TIMES}
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}_s"] = sum(
            (end - start - harness_in[sid]
             for sid, _, name, start, end in spans if name == f"cli.{sub}"),
            0.0,
        )
    out.update({name: counts.get(name, 0) for name in COUNTS})
    sweeps = counts.get("powerflow.sweeps", 0) + counts.get("powerflow.solve_calls", 0)
    out["powerflow.sweep_ms"] = 1e3 * out["powerflow.solve_s"] / sweeps if sweeps else 0.0
    return out
