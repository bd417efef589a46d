"""Spans and work counters recorded from outside the ``procure`` package.

:meth:`Tracer.install` replaces public functions of ``model``,
``benchmarks``, ``extraction``, ``mechanisms`` and ``simulation`` with timing
wrappers at the place each caller looks them up (a module global or a class
attribute) and :meth:`Tracer.uninstall` puts the originals back, so nothing
under ``src/`` changes. ``cli.main`` is timed by the caller through
:meth:`Tracer.call`.

A span is (name, start, end, parent, request, attrs). The partition engine
inlines its scans, so only per-mask count and time are visible; masks are
folded into their caller's span instead of getting one span each.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "req", "attrs", "child_s", "agg_s")

    def __init__(self, name, parent, req, attrs):
        self.name = name
        self.parent = parent
        self.req = req
        self.attrs = attrs
        self.child_s = 0.0  # time covered by direct children and folded-in masks
        self.agg_s = 0.0  # folded-in engine masks alone
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_json(self, index: dict) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": index.get(id(self.parent)),
            "req": self.req,
            "attrs": self.attrs,
            "masks_s": self.agg_s,
        }


def _count_validate(counts, args, result):
    counts["model.validate_curve_units"] += args[1]


def _count_table(counts, args, result):
    counts["model.table_entries"] += args[1] + 1


def _count_scan(counts, args, result):
    counts["benchmarks.scan_calls"] += 1
    counts["benchmarks.scan_units"] += sum(q for _, q in args[0])


def _count_extraction(counts, args, result):
    """Units the downward scan visited: all of them on no trade, else supply - bought + 1."""
    supply = sum(b.capacity for b in args[0])
    bought = sum(units for _, units in result.winners)
    counts["extraction.calls"] += 1
    counts["extraction.units_scanned"] += supply - bought + 1 if result.winners else supply


def _count_audit(counts, args, result):
    counts["simulation.audit_deviations"] += result.deviations_tested


def _count_trials(counts, args, result):
    counts["simulation.trials"] += result.trials


ENGINE_BUILD = "mechanisms.partition_profit_engine"


class Tracer:
    """Records spans and counters while installed; one instance per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # traced names the program no longer has
        self.req = None

    # -- recording ---------------------------------------------------------------

    def _open(self, name, attrs=None) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self.req, attrs)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.counts[span.name + ".calls"] += 1

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = self._open(name, attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    def _wrap_engine_build(self, fn):
        """Time the engine build and fold every mask evaluation into the calling span."""
        tracer = self
        build = self._wrap(ENGINE_BUILD, fn)

        def traced_build(instance):
            engine = build(instance)

            def traced_engine(mask):
                t = perf_counter()
                profit = engine(mask)
                dt = perf_counter() - t
                caller = tracer._stack[-1]
                caller.child_s += dt
                caller.agg_s += dt
                tracer.counts["mechanisms.engine_masks"] += 1
                return profit

            return traced_engine

        return traced_build

    # -- patching ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap each traced function where its callers look it up."""
        from procure import benchmarks, cli, mechanisms, model, simulation

        targets = [
            (cli, "load_instance", "model.load_instance", None),
            (model.Instance, "__init__", "model.Instance", None),
            (model, "validate_curve", "model.validate_curve", _count_validate),
            (model.RevenueCurve, "table", "model.RevenueCurve.table", _count_table),
            (mechanisms, "make_outcome", "model.make_outcome", None),
            (benchmarks, "optimal_single_price", "benchmarks.optimal_single_price", None),
            (benchmarks, "optimal_single_price_min2", "benchmarks.optimal_single_price_min2", None),
            (benchmarks, "scan_single_price", "benchmarks.scan_single_price", _count_scan),
            (mechanisms, "run_extraction", "extraction.run_extraction", _count_extraction),
            (mechanisms, "run_pepa", "mechanisms.run_pepa", None),
            (mechanisms, "run_pepac", "mechanisms.run_pepac", None),
            (mechanisms, "run_kth_price", "mechanisms.run_kth_price", None),
            (simulation, "partition_profit_engine", ENGINE_BUILD, None),
            (simulation, "benchmark_value", "simulation.benchmark_value", None),
            (simulation, "exhaustive_expected_profit", "simulation.exhaustive_expected_profit", None),
            (simulation, "estimate_ratio", "simulation.estimate_ratio", _count_trials),
            (simulation, "audit_truthfulness", "simulation.audit_truthfulness", _count_audit),
        ]
        for owner, attr, name, count in targets:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self._wrap_engine_build(original) if name == ENGINE_BUILD else self._wrap(name, original, count)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        self.req = None
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------------------

    def dump(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json(index)) + "\n")
