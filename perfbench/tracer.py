"""Spans around calls into gkmcalc's layers, installed from outside the program.

``Tracer.install`` replaces the functions and methods listed in ``TARGETS``
(public ones on the workload paths, plus ``cmd_table``'s worker entry
point) with wrappers.  Each call records one span: name, span id, parent
span id, run id (the index of the command within a pass), start and end in
nanoseconds of the monotonic clock, which all processes on the machine
share.  Span ids carry the process id in their high bits, so ids from
different processes never collide.

Spans stay in memory (an ``array('q')``, six integers a span) and
``Tracer.flush`` writes them out.  Worker processes forked by ``cmd_table``
inherit the wrappers and the parent's open span stack at fork, so their
first span points at the parent's ``cmd_table`` span.  A worker writes its
spans after each table column it computes, because pool workers leave
through ``os._exit`` and run no exit hooks.  ``Tracer.derive`` reads every file
back and turns spans and counters into the per-layer metrics.

None of the traced functions calls itself, so a name's total time is the
plain sum of its spans' durations.  Self time subtracts the children
recorded in the same process; the columns that workers compute are
reported as ``cli.cmd_table.worker_busy_s`` instead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
from array import array
from pathlib import Path

FIELDS = 6  # name index, span id, parent id, run id, start ns, end ns

# span name -> (module, attribute path) of the function it wraps
TARGETS = {
    "cli.main": ("gkmcalc.cli", "main"),
    "cli.cmd_table": ("gkmcalc.cli", "cmd_table"),
    "cli.table_column": ("gkmcalc.cli", "_table_column"),
    "builders.build_graph": ("gkmcalc.builders", "build_graph"),
    "graph.polarize": ("gkmcalc.graph", "polarize"),
    "thom.paths_from": ("gkmcalc.thom", "ThomCalculator.paths_from"),
    "thom.path_weight": ("gkmcalc.thom", "ThomCalculator.path_weight"),
    "thom.path_sum": ("gkmcalc.thom", "ThomCalculator.path_sum"),
    "thom.thom_class_paths": ("gkmcalc.thom", "ThomCalculator.thom_class_paths"),
    "thom.thom_class_inductive": ("gkmcalc.thom", "ThomCalculator.thom_class_inductive"),
    "thom.structure_constant": ("gkmcalc.thom", "ThomCalculator.structure_constant"),
    "thom.expand_in_thom_basis": ("gkmcalc.thom", "ThomCalculator.expand_in_thom_basis"),
    "symbolic.Polynomial.mul": ("gkmcalc.symbolic", "Polynomial.__mul__"),
    "symbolic.Polynomial.divide_linear": ("gkmcalc.symbolic", "Polynomial.divide_linear"),
    "symbolic.Polynomial.render": ("gkmcalc.symbolic", "Polynomial.render"),
    "symbolic.RationalExpr.add": ("gkmcalc.symbolic", "RationalExpr.__add__"),
    "symbolic.RationalExpr.mul": ("gkmcalc.symbolic", "RationalExpr.__mul__"),
    "symbolic.RationalExpr.make": ("gkmcalc.symbolic", "RationalExpr.make"),
    "symbolic.rho_poly": ("gkmcalc.symbolic", "rho_poly"),
    "cohomology.integrate": ("gkmcalc.cohomology", "integrate"),
    "cohomology.CohomologyClass.mul": ("gkmcalc.cohomology", "CohomologyClass.__mul__"),
    "crosssection.compose_transfer": ("gkmcalc.crosssection", "compose_transfer"),
    "crosssection.single_step_transfer": ("gkmcalc.crosssection", "single_step_transfer"),
    "render.to_root_basis": ("gkmcalc.render", "to_root_basis"),
}
NAMES = list(TARGETS)
INDEX = {name: i for i, name in enumerate(NAMES)}


def _coeff_bits(poly) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.terms.values())


def _operand_terms(value) -> int:
    terms = getattr(value, "terms", None)
    if terms is not None:
        return len(terms)
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        return sum(1 for c in coeffs if c != 0)
    return 1 if value else 0


class Tracer:
    """Spans and counters of one process; forked children start afresh."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.owner = self.pid = os.getpid()
        self.spans = array("q")
        self.stack = [0]
        self.run = 0
        self.ids = itertools.count(1)
        self.counts: dict[str, int] = {}
        self.seen_classes: set = set()
        self.enumerating = False
        self.before = {
            "thom.paths_from": self._before_paths_from,
            "thom.thom_class_paths": self._before_thom_class_paths,
        }
        self.after = {
            "thom.paths_from": self._after_paths_from,
            "symbolic.Polynomial.mul": self._after_poly_mul,
            "symbolic.Polynomial.divide_linear": self._after_divide_linear,
            "symbolic.RationalExpr.add": self._observe,
            "symbolic.RationalExpr.mul": self._observe,
            "symbolic.RationalExpr.make": self._observe,
            "symbolic.rho_poly": self._observe,
            "cli.table_column": self._after_table_column,
        }

    # -- counters ---------------------------------------------------------

    def _bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _raise_to(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def _observe(self, args, result) -> None:
        """Largest term count and coefficient bit length of a symbolic result."""
        poly = getattr(result, "num", result)
        if getattr(poly, "terms", None):
            self._raise_to("symbolic.max_terms", len(poly.terms))
            self._raise_to("symbolic.max_coeff_bits", _coeff_bits(poly))

    def _before_paths_from(self, args) -> None:
        calc, start = args[0], args[1]
        self.enumerating = start not in getattr(calc, "_paths", ())

    def _after_paths_from(self, args, result) -> None:
        if self.enumerating:
            self._bump("thom.paths.count", sum(len(paths) for paths in result.values()))

    def _before_thom_class_paths(self, args) -> None:
        calc, base = args[0], args[1]
        key = (len(calc.graph.vertices), calc.graph.dimension, tuple(calc.pol.xi), base)
        if key in self.seen_classes:
            self._bump("thom.thom_class_paths.repeats")
        else:
            self.seen_classes.add(key)

    def _after_poly_mul(self, args, result) -> None:
        if result is NotImplemented:  # Python retries with the other operand
            return
        pairs = len(args[0].terms) * _operand_terms(args[1])
        self._bump("symbolic.Polynomial.mul.term_pairs", pairs)
        self._observe(args, result)

    def _after_divide_linear(self, args, result) -> None:
        if result is not None:
            self._bump("symbolic.Polynomial.divide_linear.successes")
            self._observe(args, result)

    def _after_table_column(self, args, result) -> None:
        if self.pid != self.owner:
            self.flush()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        index = INDEX[name]
        before = self.before.get(name)
        after = self.after.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1]
            sid = self.pid << 32 | next(self.ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((index, sid, parent, self.run, start, end))
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_fork_in_child(self) -> None:
        # the open span stack is kept: it names the parent of the child's spans
        del self.spans[:]
        self.counts.clear()
        self.seen_classes.clear()
        self.ids = itertools.count(1)
        self.pid = os.getpid()

    def install(self) -> None:
        """Wrap every target in place; call after importing gkmcalc, once."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "gkmcalc"]
        for name, (module_name, attribute) in TARGETS.items():
            module = importlib.import_module(module_name)
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name)
                raw = cls.__dict__[member]
                if isinstance(raw, staticmethod):
                    setattr(cls, member, staticmethod(self._wrap(name, raw.__func__)))
                    continue
                traced = self._wrap(name, raw)
                # operator aliases such as __rmul__ = __mul__ share the function
                for key, value in list(cls.__dict__.items()):
                    if value is raw:
                        setattr(cls, key, traced)
            else:
                raw = getattr(module, member)
                traced = self._wrap(name, raw)
                # names imported with "from module import f" are separate bindings
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is raw:
                            setattr(other, key, traced)
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    def flush(self) -> None:
        """Write this process's spans and counters and empty the span buffer."""
        with open(self.out_dir / f"spans-{self.pid}.bin", "ab") as handle:
            self.spans.tofile(handle)
        del self.spans[:]
        (self.out_dir / f"counts-{self.pid}.json").write_text(json.dumps(self.counts))

    def derive(self) -> dict:
        """Per-layer metrics from every process's span and counter files."""
        calls = [0] * len(NAMES)
        total = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        workers: set[int] = set()
        worker_busy = 0
        counts: dict[str, int] = {}
        for path in sorted(self.out_dir.glob("counts-*.json")):
            for key, value in json.loads(path.read_text()).items():
                if key.startswith("symbolic.max_"):
                    counts[key] = max(counts.get(key, 0), value)
                else:
                    counts[key] = counts.get(key, 0) + value
        column = INDEX["cli.table_column"]
        for path in sorted(self.out_dir.glob("spans-*.bin")):
            pid = int(path.stem.split("-")[1])
            spans = array("q", path.read_bytes())
            # spans are stored in completion order, so a span's same-process
            # children always come before it
            children: dict[int, int] = {}
            for i in range(0, len(spans), FIELDS):
                index, sid, parent, _, start, end = spans[i : i + FIELDS]
                duration = end - start
                calls[index] += 1
                total[index] += duration
                self_ns[index] += duration - children.pop(sid, 0)
                if parent >> 32 == pid:
                    children[parent] = children.get(parent, 0) + duration
                if index == column and pid != self.owner:
                    workers.add(pid)
                    worker_busy += duration
        return _layer_metrics(calls, total, self_ns, counts, len(workers), worker_busy)


CALLS = (
    "builders.build_graph",
    "graph.polarize",
    "thom.path_weight",
    "thom.path_sum",
    "thom.thom_class_paths",
    "symbolic.Polynomial.mul",
    "symbolic.Polynomial.divide_linear",
    "symbolic.RationalExpr.add",
    "symbolic.RationalExpr.mul",
    "symbolic.RationalExpr.make",
    "symbolic.rho_poly",
    "cohomology.integrate",
)
TOTAL = (
    "builders.build_graph",
    "graph.polarize",
    "thom.paths_from",
    "thom.thom_class_paths",
    "thom.thom_class_inductive",
    "thom.structure_constant",
    "thom.expand_in_thom_basis",
    "cohomology.integrate",
    "crosssection.compose_transfer",
    "crosssection.single_step_transfer",
    "render.to_root_basis",
    "symbolic.Polynomial.render",
)
SELF = (
    "thom.path_weight",
    "thom.path_sum",
    "symbolic.Polynomial.mul",
    "symbolic.Polynomial.divide_linear",
    "symbolic.RationalExpr.add",
    "symbolic.RationalExpr.mul",
    "symbolic.RationalExpr.make",
    "symbolic.rho_poly",
    "cohomology.CohomologyClass.mul",
)


def _layer_metrics(calls, total, self_ns, counts, pool_workers, worker_busy) -> dict:
    def n(name):
        return calls[INDEX[name]]

    def seconds(values, name):
        return values[INDEX[name]] / 1e9

    def share(part, whole):
        return part / whole if whole else 0.0

    metrics = {
        "cli.main.calls": (n("cli.main"), "count"),
        "cli.main.total_s": (seconds(total, "cli.main"), "s"),
        "cli.cmd_table.pool_workers": (pool_workers, "count"),
        "cli.cmd_table.worker_busy_s": (worker_busy / 1e9, "s"),
        "cli.cmd_table.parent_wait_s": (seconds(self_ns, "cli.cmd_table"), "s"),
        "thom.paths.count": (counts.get("thom.paths.count", 0), "count"),
        "thom.thom_class_paths.repeat_ratio": (
            share(counts.get("thom.thom_class_paths.repeats", 0), n("thom.thom_class_paths")),
            "ratio",
        ),
        "symbolic.Polynomial.mul.term_pairs": (
            counts.get("symbolic.Polynomial.mul.term_pairs", 0),
            "count",
        ),
        "symbolic.Polynomial.divide_linear.success_ratio": (
            share(
                counts.get("symbolic.Polynomial.divide_linear.successes", 0),
                n("symbolic.Polynomial.divide_linear"),
            ),
            "ratio",
        ),
        "symbolic.max_terms": (counts.get("symbolic.max_terms", 0), "count"),
        "symbolic.max_coeff_bits": (counts.get("symbolic.max_coeff_bits", 0), "bits"),
    }
    for name in CALLS:
        metrics[f"{name}.calls"] = (n(name), "count")
    for name in TOTAL:
        metrics[f"{name}.total_s"] = (seconds(total, name), "s")
    for name in SELF:
        metrics[f"{name}.self_s"] = (seconds(self_ns, name), "s")
    return {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}
