"""Per-layer spans for the traced run, recorded from outside the program.

:class:`Tracer` wraps the calls into each layer listed in
:data:`BOUNDARIES` by replacing the function on its class or module at
run time; no source file of the program changes.  Each wrapped call is
a *span*: its duration, minus the spans nested inside it, is added to
the span name's self time.  Time spent in no span at all is
``trace.unattributed_s``, so the self times and that remainder add up
to the traced wall time exactly.

Some layers have no public entry point and run only as callbacks the
engine fires (step completion, gauge polls, step listeners, inspection
sweeps, hazard ticks); those private callbacks are wrapped at class
level, before any object binds them.  A boundary that no longer exists,
or a subclass that overrides a wrapped method without being wrapped
itself, raises :class:`TraceError`: a renamed callback must fail the
traced run, not report zero.

Counts come from the same wrappers: calls per span, plus the counters
in :data:`BOUNDARIES` taken from results (events run, jobs started,
cache entries written and hit, cells expanded, executor batches).
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional


class TraceError(RuntimeError):
    """A boundary the traced run wraps is missing from the program."""


class Boundary(NamedTuple):
    """One wrapped call: ``module``'s ``target`` (``Class.attr`` or a
    module-level function) recorded as span ``span``."""

    module: str
    target: str
    span: str
    #: "call": one span per call; "iter": the call returns an iterator
    #: and every ``next()`` on it is one more span
    kind: str = "call"
    #: counter fed from the call's arguments/result (see _COUNTERS), or
    #: for "iter" boundaries the counter bumped once per item
    counter: Optional[str] = None


def _add_events(counters: Dict[str, float], args: tuple, result: Any) -> None:
    counters["sim.engine.events"] += result


def _add_started(counters: Dict[str, float], args: tuple, result: Any) -> None:
    counters["cluster.scheduler.started"] += result


def _add_writes(counters: Dict[str, float], args: tuple, result: Any) -> None:
    counters["experiments.cache.writes"] += len(args[1])


def _add_probes(counters: Dict[str, float], args: tuple, result: Any) -> None:
    counters["experiments.cache.probes"] += len(result)
    counters["experiments.cache.hits"] += sum(p is not None for p in result)


_COUNTERS: Dict[str, Callable[[Dict[str, float], tuple, Any], None]] = {
    "events": _add_events,
    "started": _add_started,
    "writes": _add_writes,
    "probes": _add_probes,
}

_LIFECYCLE = ("launch", "shutdown", "pause", "resume", "resize")

#: Every layer boundary the traced run wraps.
BOUNDARIES = (
    (Boundary("repro.cluster.topology", "Cluster.__init__",
              "cluster.topology.build"),
     Boundary("repro.core.platform", "TrainingPlatform.submit",
              "core.platform.submit"),
     Boundary("repro.core.platform", "TrainingPlatform._build_stack",
              "controller.stack.build"))
    + tuple(Boundary("repro.controller.stack", f"ManagementStack.{op}",
                     "controller.stack.lifecycle") for op in _LIFECYCLE)
    + (Boundary("repro.sim.engine", "Simulator.run", "sim.engine.self",
                counter="events"),
       Boundary("repro.training.job", "TrainingJob._complete_step",
                "training.job.step"),
       Boundary("repro.training.metrics", "LossCurve.loss",
                "training.metrics.query"),
       Boundary("repro.training.metrics", "LossCurve.grad_norm",
                "training.metrics.query"),
       Boundary("repro.training.metrics", "MfuModel.current_mfu",
                "training.metrics.query"),
       Boundary("repro.training.metrics", "MfuModel.step_time",
                "training.metrics.query"),
       Boundary("repro.monitor.collectors", "MetricsCollector._poll_gauges",
                "monitor.collectors.poll"),
       Boundary("repro.monitor.collectors", "MetricsCollector._poll_logs",
                "monitor.collectors.poll"),
       Boundary("repro.monitor.collectors", "MetricsCollector._on_step",
                "monitor.collectors.step_ingest"),
       Boundary("repro.monitor.detectors", "AnomalyDetector._on_step",
                "monitor.detectors.step"),
       Boundary("repro.checkpoint.manager", "CheckpointManager._on_step",
                "checkpoint.manager.step_hook"),
       Boundary("repro.checkpoint.manager",
                "CheckpointManager.plan_recovery",
                "checkpoint.manager.plan"))
    + tuple(Boundary("repro.monitor.inspections",
                     f"InspectionEngine._sweep_{kind}",
                     "monitor.inspections.sweep")
            for kind in ("network", "gpu", "host"))
    + (Boundary("repro.cluster.faults", "MachineHazardProcess._tick",
                "cluster.faults.hazard"),
       Boundary("repro.cluster.faults", "FaultInjector.inject",
                "cluster.faults.inject"),
       Boundary("repro.cluster.scheduler", "FleetScheduler.dispatch",
                "cluster.scheduler.dispatch", counter="started"),
       Boundary("repro.cluster.scheduler", "FleetScheduler._plan_preemption",
                "cluster.scheduler.plan"))
    + tuple(Boundary("repro.cluster.placement", f"{cls}.select",
                     "cluster.placement.select")
            for cls in ("PlacementPolicy", "AnyFreePolicy", "PackPolicy",
                        "SpreadPolicy"))
    + (Boundary("repro.controller.standby", "StandbyResizer.resize_once",
                "controller.standby.tick"),
       Boundary("repro.controller.controller", "RobustController.on_anomaly",
                "controller.controller.handle"),
       Boundary("repro.controller.controller",
                "RobustController.on_inspection_event",
                "controller.controller.handle"),
       Boundary("repro.diagnosis.diagnoser", "Diagnoser.diagnose",
                "diagnosis.diagnoser.diagnose"),
       Boundary("repro.core.platform", "TrainingPlatform.fleet_report",
                "core.platform.report"),
       Boundary("repro.experiments.sweep", "expand_cells",
                "experiments.sweep.expand", kind="iter",
                counter="experiments.sweep.cells"),
       Boundary("repro.experiments.sweep", "SweepRunner.stream",
                "experiments.sweep.stream", kind="iter"))
    + tuple(Boundary("repro.experiments.executor",
                     f"{cls}.results_batched", "experiments.executor.wait",
                     kind="iter", counter="experiments.executor.batches")
            for cls in ("Executor", "ProcessPoolExecutor", "RemoteExecutor"))
    + (Boundary("repro.experiments.summary", "StreamingSummary.add",
                "experiments.summary.fold"),
       Boundary("repro.experiments.cache", "ResultCache.put_many",
                "experiments.cache.put", counter="writes"),
       Boundary("repro.experiments.cache", "ResultCache.get_many",
                "experiments.cache.probe", counter="probes"))
)

#: Spans opened by the benchmark around its own calls into a layer.
BENCH_SPANS = ("experiments.registry.lookup", "experiments.registry.build",
               "workloads.fleet.run", "workloads.fleet.teardown",
               "trace.install")

SPAN_NAMES = tuple(dict.fromkeys(
    BENCH_SPANS + tuple(b.span for b in BOUNDARIES)))

COUNTER_NAMES = ("sim.engine.events", "cluster.scheduler.started",
                 "experiments.cache.writes", "experiments.cache.probes",
                 "experiments.cache.hits", "experiments.sweep.cells",
                 "experiments.executor.batches")


class Tracer:
    """Span stack, per-span ``[calls, self_s]`` and counters."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {
            name: [0, 0.0] for name in SPAN_NAMES}
        self.counters: Dict[str, float] = dict.fromkeys(COUNTER_NAMES, 0)
        #: child time accumulated by each open span; [0] is the root
        #: (time inside top-level spans, i.e. attributed time)
        self._stack: List[float] = [0.0]
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------
    @property
    def attributed_s(self) -> float:
        """Wall time covered by top-level spans so far."""
        return self._stack[0]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """One span around the benchmark's own call into a layer."""
        record = self.spans[name]
        stack = self._stack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            record[0] += 1
            record[1] += elapsed - stack.pop()
            stack[-1] += elapsed

    def wrap_call(self, fn: Callable, name: str,
                  counter: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as one span per call."""
        record = self.spans[name]
        stack = self._stack
        clock = time.perf_counter
        counters = self.counters

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                record[0] += 1
                record[1] += elapsed - stack.pop()
                stack[-1] += elapsed
            if counter is not None:
                counter(counters, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_iter(self, fn: Callable, name: str,
                  item_counter: Optional[str] = None) -> Callable:
        """``fn`` returns an iterator: the call and every ``next()`` on
        the result are spans (work a lazy iterator does happens inside
        ``next()``, interleaved with its consumer)."""
        call = self.wrap_call(fn, name)
        record = self.spans[name]
        stack = self._stack
        clock = time.perf_counter
        counters = self.counters

        def timed(inner: Iterator) -> Iterator:
            try:
                while True:
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        record[0] += 1
                        record[1] += elapsed - stack.pop()
                        stack[-1] += elapsed
                    if item_counter is not None:
                        counters[item_counter] += 1
                    yield item
            finally:
                # closing early must still shut the inner iterator
                # down (a process pool lives inside it)
                close = getattr(inner, "close", None)
                if close is not None:
                    close()

        def traced(*args: Any, **kwargs: Any) -> Iterator:
            return timed(call(*args, **kwargs))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- installation --------------------------------------------------
    def install(self, boundaries: tuple = BOUNDARIES) -> None:
        """Wrap every boundary; raise :class:`TraceError`, wrapping
        nothing, if any of them no longer exists."""
        resolved = [(b, *resolve(b)) for b in boundaries]
        check_overrides([(owner, attr) for _b, owner, attr, _fn
                         in resolved])
        for b, owner, attr, fn in resolved:
            if b.kind == "iter":
                wrapper = self.wrap_iter(fn, b.span, b.counter)
            else:
                wrapper = self.wrap_call(
                    fn, b.span, _COUNTERS[b.counter] if b.counter else None)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)


def resolve(boundary: Boundary) -> tuple:
    """``(owner, attr, function)`` for a boundary, or :class:`TraceError`."""
    try:
        owner: Any = importlib.import_module(boundary.module)
    except ImportError as exc:
        raise TraceError(
            f"traced boundary {boundary.module}:{boundary.target}: "
            f"module is gone ({exc})") from None
    *path, attr = boundary.target.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if not inspect.isclass(owner):
            raise TraceError(
                f"traced boundary {boundary.module}:{boundary.target}: "
                f"no class {part!r}")
    fn = vars(owner).get(attr)
    if not inspect.isfunction(fn):
        raise TraceError(
            f"traced boundary {boundary.module}:{boundary.target}: "
            f"{attr!r} is not a function defined there")
    return owner, attr, fn


def check_overrides(wrapped: List[tuple]) -> None:
    """A subclass overriding a wrapped method bypasses its wrapper:
    every such override must be wrapped too."""
    targets = set(wrapped)
    for owner, attr in wrapped:
        if not inspect.isclass(owner):
            continue
        pending = list(owner.__subclasses__())
        while pending:
            sub = pending.pop()
            pending.extend(sub.__subclasses__())
            if attr in vars(sub) and (sub, attr) not in targets:
                raise TraceError(
                    f"{sub.__module__}.{sub.__qualname__}.{attr} overrides "
                    f"a traced method but is not traced itself")


def per_span_overhead_s(calls: int = 20_000) -> float:
    """Measured cost one span adds to a call (a wrapped no-op against a
    plain one), to estimate the traced run's overhead."""
    tracer = Tracer()

    def noop() -> None:
        return None

    traced = tracer.wrap_call(noop, SPAN_NAMES[0])
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        start = clock()
        for _ in range(calls):
            noop()
        plain = clock() - start
        start = clock()
        for _ in range(calls):
            traced()
        best = min(best, (clock() - start - plain) / calls)
    return max(0.0, best)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: span name -> its call-count metric (the self time is always
#: ``<span>_s``)
CALL_METRICS = {
    "cluster.topology.build": "cluster.topology.build_calls",
    "core.platform.submit": "core.platform.submit_calls",
    "controller.stack.build": "controller.stack.builds",
    "controller.stack.lifecycle": "controller.stack.lifecycle_calls",
    "training.job.step": "training.job.steps",
    "training.metrics.query": "training.metrics.queries",
    "monitor.collectors.poll": "monitor.collectors.polls",
    "monitor.inspections.sweep": "monitor.inspections.sweeps",
    "cluster.faults.hazard": "cluster.faults.hazard_ticks",
    "cluster.faults.inject": "cluster.faults.injections",
    "cluster.scheduler.dispatch": "cluster.scheduler.dispatch_calls",
    "cluster.scheduler.plan": "cluster.scheduler.preemption_plans",
    "cluster.placement.select": "cluster.placement.selects",
    "controller.standby.tick": "controller.standby.ticks",
    "controller.controller.handle": "controller.controller.signals",
    "diagnosis.diagnoser.diagnose": "diagnosis.diagnoser.calls",
    "checkpoint.manager.plan": "checkpoint.manager.recovery_plans",
}

#: counter -> its metric name
COUNTER_METRICS = {
    "sim.engine.events": "sim.engine.events",
    "experiments.sweep.cells": "experiments.sweep.cells",
    "experiments.executor.batches": "experiments.executor.batches",
    "experiments.cache.writes": "experiments.cache.writes",
}


def layer_metric_names() -> List[tuple]:
    """``(name, unit)`` of every per-layer metric, in report order."""
    names = [(f"{span}_s", "s") for span in SPAN_NAMES]
    names += [(metric, "count") for metric in CALL_METRICS.values()]
    names += [(metric, "count") for metric in COUNTER_METRICS.values()]
    names += [("cluster.scheduler.dispatch_yield", "ratio"),
              ("experiments.cache.hit_ratio", "ratio"),
              ("trace.wall_s", "s"),
              ("trace.unattributed_s", "s"),
              ("trace.spans", "count"),
              ("trace.overhead_frac", "ratio")]
    return names


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metric values from a raw trace record (see
    :func:`raw_record`), possibly summed over several repetitions."""
    spans = raw["spans"]
    counters = raw["counters"]
    values: Dict[str, float] = {}
    for span in SPAN_NAMES:
        values[f"{span}_s"] = spans[span][1]
    for span, metric in CALL_METRICS.items():
        values[metric] = spans[span][0]
    for counter, metric in COUNTER_METRICS.items():
        values[metric] = counters[counter]
    values["cluster.scheduler.dispatch_yield"] = _ratio(
        counters["cluster.scheduler.started"],
        spans["cluster.scheduler.dispatch"][0])
    values["experiments.cache.hit_ratio"] = _ratio(
        counters["experiments.cache.hits"], counters["experiments.cache.probes"])
    values["trace.wall_s"] = raw["wall_s"]
    values["trace.unattributed_s"] = raw["wall_s"] - raw["attributed_s"]
    values["trace.spans"] = raw["span_count"]
    values["trace.overhead_frac"] = _ratio(raw["overhead_s"], raw["wall_s"])
    return values


def raw_record(tracer: Tracer, wall_s: float) -> Dict[str, Any]:
    """The JSON-safe trace of one traced repetition."""
    span_count = int(sum(calls for calls, _ in tracer.spans.values()))
    return {"spans": {k: list(v) for k, v in tracer.spans.items()},
            "counters": dict(tracer.counters),
            "wall_s": wall_s,
            "attributed_s": tracer.attributed_s,
            "span_count": span_count,
            "overhead_s": span_count * per_span_overhead_s()}


def merge_raw(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum raw trace records of several repetitions."""
    merged = {"spans": {name: [0, 0.0] for name in SPAN_NAMES},
              "counters": dict.fromkeys(COUNTER_NAMES, 0),
              "wall_s": 0.0, "attributed_s": 0.0, "span_count": 0,
              "overhead_s": 0.0}
    for record in records:
        for name, (calls, self_s) in record["spans"].items():
            merged["spans"][name][0] += calls
            merged["spans"][name][1] += self_s
        for name, value in record["counters"].items():
            merged["counters"][name] += value
        for key in ("wall_s", "attributed_s", "span_count", "overhead_s"):
            merged[key] += record[key]
    return merged
