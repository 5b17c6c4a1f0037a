"""Outside-in layer tracer: timed wrappers around each layer's entry points.

The benchmark measures the simulator from the outside.  :class:`LayerTracer`
replaces a fixed set of public methods of ``src/repro`` classes (the layers)
with thin timing wrappers for the duration of a ``with`` block and puts the
original function objects back on exit.  Every wrapped call records one span
``[name, start, end, parent, cell, counts]`` in memory:

* ``parent`` is the index of the enclosing wrapped call (``-1`` at the top),
  so self time is a span's duration minus the time its child spans cover;
* ``cell`` is the key of the harness cell the call ran in, the identifier the
  spans of one cell share;
* ``counts`` holds work counts read from the call's return value (or from a
  before/after difference of the receiver's own state).

:func:`layer_metrics` folds the spans into per-layer ``calls``, ``self_s``
and counts, and :func:`chrome_trace` writes them as Chrome trace-event JSON
(``chrome://tracing`` / Perfetto), so a traced run can be read as one
timeline across layers.  Nothing here changes what the simulation computes:
the wrappers call the original function with the original arguments and
return its result unchanged.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Counters the scheduler ticks on its cached fast paths.  They live in each
#: cluster's MetricRegistry, which the harness drops when a cell ends, so the
#: tracer reads them from every cluster built inside a cell when that cell
#: ends.
CLUSTER_COUNTERS = {
    "waves_coalesced": "cluster.waves_coalesced",
    "frontier_cache_hits": "jobs.frontier_cache_hits",
}

Counts = Optional[Dict[str, int]]


def _placed(obj: Any, args: tuple, result: Any, before: Any) -> Counts:
    requests = args[0] if args else ()
    return {
        "cluster.requests": len(requests),
        "cluster.containers_placed": sum(c is not None for c in result),
    }


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped method: span name, ``module:Class.method`` target, counts.

    ``counts(obj, args, result, before)`` turns one call into work counts;
    ``before(obj)`` captures receiver state ahead of the call for counts
    that are differences (engine events processed).
    """

    name: str
    target: str
    counts: Optional[Callable[[Any, tuple, Any, Any], Counts]] = None
    before: Optional[Callable[[Any], Any]] = None


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint(
        "simulation.run_until",
        "repro.simulation.engine:SimulationEngine.run_until",
        lambda obj, args, result, before: {
            "simulation.events": obj.processed_events - before
        },
        lambda obj: obj.processed_events,
    ),
    EntryPoint(
        "cluster.refresh",
        "repro.cluster.fleet_state:FleetState.refresh",
        lambda obj, args, result, before: {"cluster.reserve_kills": len(result)},
    ),
    EntryPoint(
        "cluster.wave_schedule",
        "repro.cluster.resource_manager:WaveBatch.schedule",
        _placed,
    ),
    EntryPoint(
        "cluster.complete", "repro.cluster.resource_manager:ResourceManager.complete"
    ),
    EntryPoint("jobs.pump_all", "repro.jobs.app_master:ApplicationMaster.pump_all"),
    EntryPoint("jobs.submit", "repro.jobs.app_master:ApplicationMaster.submit"),
    EntryPoint(
        "storage.run_replication",
        "repro.storage.namenode:NameNode.run_replication",
        lambda obj, args, result, before: {"storage.replicas_restored": result},
    ),
    EntryPoint(
        "storage.handle_reimage",
        "repro.storage.namenode:NameNode.handle_reimage",
        lambda obj, args, result, before: {"storage.blocks_hit": len(result)},
    ),
    EntryPoint(
        "storage.create_blocks",
        "repro.storage.namenode:NameNode.create_blocks",
        lambda obj, args, result, before: {
            "storage.blocks_created": sum(b is not None for b in result)
        },
    ),
    EntryPoint(
        "storage.check_accesses",
        "repro.storage.namenode:NameNode.check_accesses",
        lambda obj, args, result, before: {"storage.accesses": len(result)},
    ),
    EntryPoint(
        "core.place_block", "repro.core.placement:ReplicaPlacer.place_block_indices"
    ),
    EntryPoint("core.class_select", "repro.core.class_selection:ClassSelector.select"),
    EntryPoint(
        "services.p99_latency",
        "repro.services.latency_model:LatencyModel.p99_latency_ms_array",
    ),
    EntryPoint(
        "harness.epoch_fold",
        "repro.harness.streaming:StreamingEpochAggregator.boundary",
    ),
    # The NameNode's per-server busy mask is this one trace-matrix gather;
    # ``TraceMatrix.busy_mask`` itself is on no workload's path.
    EntryPoint(
        "traces.utilization_rows", "repro.traces.matrix:TraceMatrix.utilization_rows"
    ),
)

#: Span name of one harness cell; its ``cell`` field is the cell's own key.
CELL_SPAN = "harness.cell"

#: Every span name a traced run can report, in report order.
SPAN_NAMES = (CELL_SPAN,) + tuple(entry.name for entry in ENTRY_POINTS)

#: Every count a traced run can report, in report order.
COUNT_NAMES = (
    "simulation.events",
    "cluster.reserve_kills",
    "cluster.requests",
    "cluster.containers_placed",
    "cluster.waves_coalesced",
    "jobs.frontier_cache_hits",
    "storage.replicas_restored",
    "storage.blocks_hit",
    "storage.blocks_created",
    "storage.accesses",
)

_MISSING = object()


def _resolve(target: str) -> Tuple[type, str]:
    module_name, qualname = target.split(":")
    class_name, attr = qualname.split(".")
    return getattr(importlib.import_module(module_name), class_name), attr


class LayerTracer:
    """Context manager that installs the wrappers and collects spans.

    ``with LayerTracer() as tracer: api.run(...)`` leaves ``tracer.spans``
    holding every wrapped call of the run, in start order.  On exit each
    patched class attribute is restored to the identical object it held
    before (or deleted again where the method was inherited).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._cell: Optional[str] = None
        self._clusters: List[Any] = []
        self._patched: List[Tuple[type, str, Any]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        try:
            for entry in ENTRY_POINTS:
                cls, attr = _resolve(entry.target)
                self._patch(cls, attr, self._timed(entry, getattr(cls, attr)))
            from repro.harness.runners import RUNNERS, ScenarioRunner
            from repro.jobs.scheduler_variants import HarvestingCluster

            for cls in {ScenarioRunner, *RUNNERS.values()}:
                run_cell = cls.__dict__.get("run_cell")
                if run_cell is not None:
                    self._patch(cls, "run_cell", self._cell_span(run_cell))
            init = HarvestingCluster.__init__
            self._patch(HarvestingCluster, "__init__", self._collect_cluster(init))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self._restore()

    def _patch(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patched.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
        setattr(cls, attr, wrapper)

    def _restore(self) -> None:
        while self._patched:
            cls, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self._cell, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _timed(self, entry: EntryPoint, original: Callable) -> Callable:
        counts, before = entry.counts, entry.before

        @functools.wraps(original)
        def wrapper(obj: Any, *args: Any, **kwargs: Any) -> Any:
            state = before(obj) if before is not None else None
            span = self._open(entry.name)
            try:
                result = original(obj, *args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span[5] = counts(obj, args, result, state)
            return result

        return wrapper

    def _cell_span(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(runner: Any, cell: Any) -> Any:
            outer, self._cell = self._cell, cell.key
            span = self._open(CELL_SPAN)
            try:
                return original(runner, cell)
            finally:
                self._close(span)
                span[5] = self._drain_clusters()
                self._cell = outer

        return wrapper

    def _collect_cluster(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(cluster: Any, *args: Any, **kwargs: Any) -> None:
            original(cluster, *args, **kwargs)
            self._clusters.append(cluster.metrics)

        return wrapper

    def _drain_clusters(self) -> Counts:
        totals = {metric: 0 for metric in CLUSTER_COUNTERS.values()}
        for registry in self._clusters:
            for counter, metric in CLUSTER_COUNTERS.items():
                totals[metric] += registry.counter_value(counter)
        self._clusters.clear()
        return totals


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer ``<span>.calls``, ``<span>.self_s`` and counts from spans.

    Self time is each span's duration minus the durations of its direct
    children; every wrapped interval is counted once, so the self times of
    one run sum to at most the run's wall-clock.  Layers the run never
    entered report 0.
    """
    child_seconds = [0.0] * len(spans)
    for name, start, end, parent, _cell, _counts in spans:
        if parent >= 0:
            child_seconds[parent] += end - start
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for index, (name, start, end, _parent, _cell, span_counts) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_seconds[index]
        if span_counts:
            for key, value in span_counts.items():
                counts[key] += int(value)
    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    for name in COUNT_NAMES:
        metrics[name] = counts[name]
    return metrics


def chrome_trace(spans: List[list], other: Dict[str, Any]) -> Dict[str, Any]:
    """The spans as a Chrome trace-event document (complete ``X`` events).

    Times are microseconds from the first span.  Each event's ``args`` carry
    its span index, its parent's index, its cell key and its counts; the cell
    key is also the event ``id`` the spans of one cell share.
    """
    origin = spans[0][1] if spans else 0.0
    events = []
    for index, (name, start, end, parent, cell, counts) in enumerate(spans):
        args: Dict[str, Any] = {"span": index, "parent": parent, "cell": cell}
        if counts:
            args.update(counts)
        events.append(
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "id": cell,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}
