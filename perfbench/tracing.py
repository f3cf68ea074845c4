"""Per-layer attribution for the traced run.

The benchmark records spans around the public entry points of each
``repro`` module, from its own files: :func:`install` replaces each
entry point with a wrapper. Module-level functions are imported by name
into other modules (``evaluate`` lives in ``engine/executor.py`` but is
called through ``api/session.py``, ``core/refresh.py``, ...), so every
module attribute that *is* the original function object is replaced,
not only the defining one.

A span records name, start, end, parent span and op id. A layer's self
time is its spans' duration minus the part their child spans cover, so
the layers' ``*_ms`` figures add up without double counting. Self times
are corrected for host speed with the factor of the op they ran in.
Tracing covers the timed ops plus the untimed maintenance and recovery
sections of ``oltp``; set-up and warm-up ops are not traced.

Which end-to-end metric each layer should move, and where it should
read (near) zero:

=========== ===================================== =====================
layer       should move                           little or no work on
=========== ===================================== =====================
api         op_ms_p50 on oltp, pipeline (DML      serve (no DML)
            WHERE matching runs here)
sql, plan   op_ms_p50 on serve (ad hoc query)     oltp
engine      op_ms_p50 on serve (evaluate),        oltp
            pipeline (join, window)
txn         op_ms_p50 on oltp                     serve
storage     op_ms_p50, peak_rss_mb on oltp;       serve
            peak_rss_mb on pipeline
streams     ops_per_s on pipeline                 serve
ivm         op_ms_p50, ops_per_s on pipeline      serve
core        op_ms_p50 on pipeline                 serve
scheduler   op_ms_p90 on pipeline                 serve
durability  op_ms_p50, peak_rss_mb on oltp        pipeline, serve
=========== ===================================== =====================
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from refclock import percentile

WORKLOADS = ("pipeline", "serve", "oltp")

#: Every per-layer metric, with its unit, in output order. All ``*_ms``
#: figures are self times in reference milliseconds.
METRIC_UNITS = {
    "api.calls": "count", "api.self_ms": "ref-ms",
    "sql.parse_calls": "count", "sql.parse_ms": "ref-ms",
    "plan.build_calls": "count", "plan.build_ms": "ref-ms",
    "plan.cache_hit_ratio": "ratio",
    "engine.evaluate_calls": "count", "engine.evaluate_ms": "ref-ms",
    "engine.join_ms": "ref-ms", "engine.aggregate_ms": "ref-ms",
    "engine.window_ms": "ref-ms", "engine.rows_out": "rows",
    "txn.commit_calls": "count", "txn.commit_ms": "ref-ms",
    "txn.conflicts": "count",
    "storage.apply_calls": "count", "storage.apply_ms": "ref-ms",
    "storage.rows_written": "rows", "storage.versions_retained": "count",
    "streams.changes_calls": "count", "streams.changes_ms": "ref-ms",
    "streams.delta_rows": "rows",
    "ivm.differentiate_calls": "count", "ivm.differentiate_ms": "ref-ms",
    "ivm.delta_rows_out": "rows", "ivm.fold_calls": "count",
    "ivm.fold_ms": "ref-ms", "ivm.state_inits": "count",
    "core.refresh_calls": "count", "core.refresh_self_ms": "ref-ms",
    "core.incremental_ratio": "ratio", "core.refresh_failed": "count",
    "scheduler.run_calls": "count", "scheduler.self_ms": "ref-ms",
    "durability.wal_appends": "count", "durability.wal_ms": "ref-ms",
    "durability.wal_bytes": "bytes", "durability.fsyncs": "count",
    "durability.fsync_ms": "ref-ms", "durability.checkpoint_ms": "ref-ms",
    "durability.checkpoint_bytes": "bytes",
    "durability.recover_ms": "ref-ms",
    "durability.records_replayed": "count",
    "trace.op_ms_p50": "ref-ms",
}

#: Metric prefixes that must read zero on a workload (the layer does no
#: work there by construction).
PREDICTED_ZEROS = {
    "pipeline": ("durability.",),
    "serve": ("durability.", "ivm.", "txn.commit"),
    "oltp": (),
}


class Tracer:
    """In-memory span recorder plus count metrics from call results."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = False
        self.op_id: object = None
        self.counts: Counter = Counter()
        self.plan_gets = 0
        self.plan_hits = 0
        self.refreshes_with_data = 0
        self.refreshes_incremental = 0
        self.wal_start = 0

    def wrap(self, entry: "EntryPoint", fn: Callable) -> Callable:
        tracer = self
        name, before, observe = entry.name, entry.before, entry.observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            stack = tracer._stack
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if observe is not None:
                    observe(tracer, args, result, error)

        return traced

    def calls(self) -> Counter:
        """Number of spans (calls) per span name."""
        return Counter(span[0] for span in self.spans)

    def self_ms(self, factors: dict) -> Counter:
        """Corrected self time per span name; ``factors`` maps an op id to
        its host-speed correction factor."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for __, start, end, parent, __ in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Counter = Counter()
        for index, (name, start, end, __, op_id) in enumerate(spans):
            totals[name] += ((end - start - covered[index]) * 1000.0
                             * factors[op_id])
        return totals


# -- count observers: (tracer, args, result, error) ----------------------------

def _rows_out(tracer, args, result, error):
    if error is None:
        tracer.counts["engine.rows_out"] += len(result)


def _plan_get(tracer, args, result, error):
    tracer.plan_gets += 1
    if result is not None:
        tracer.plan_hits += 1


def _commit(tracer, args, result, error):
    from repro.errors import LockConflict

    if isinstance(error, LockConflict):
        tracer.counts["txn.conflicts"] += 1


def _apply(tracer, args, result, error):
    if error is None:
        write = args[1]
        written = (len(write.inserts) + len(write.deletes)
                   + len(write.updates))
        if write.changeset is not None:
            written += len(write.changeset)
        tracer.counts["storage.rows_written"] += written


def _changes(tracer, args, result, error):
    if error is None:
        tracer.counts["streams.delta_rows"] += len(result)


def _differentiate(tracer, args, result, error):
    if error is None:
        tracer.counts["ivm.delta_rows_out"] += len(result[0])


def _refresh(tracer, args, result, error):
    if error is not None or result.error is not None:
        tracer.counts["core.refresh_failed"] += 1
    if error is not None or result.action is None:
        return
    if result.action.value not in ("no_data", "skipped_upstream_failed"):
        tracer.refreshes_with_data += 1
        if result.action.value == "incremental":
            tracer.refreshes_incremental += 1


def _wal_start(tracer, args):
    # The returned record carries its end offset only.
    tracer.wal_start = args[0].position()


def _wal_append(tracer, args, result, error):
    if error is None:
        tracer.counts["durability.wal_bytes"] += (result.end_offset
                                                  - tracer.wal_start)


def _checkpoint(tracer, args, result, error):
    if error is None:
        tracer.counts["durability.checkpoint_bytes"] += os.path.getsize(
            result)


def _recover(tracer, args, result, error):
    if error is None:
        tracer.counts["durability.records_replayed"] += (
            result.records_replayed)


@dataclass(frozen=True)
class EntryPoint:
    layer: str
    module: str
    attr: str                        # "function" or "Class.method"
    ms: str                          # the *_ms metric its self time joins
    calls: Optional[str] = None      # the metric counting its calls
    fires_on: tuple = ()             # workloads whose ops must call it
    observe: Optional[Callable] = None
    before: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.attr}"


_API, _PARSE, _PLAN = ("api.self_ms", "api.calls"), ("sql.parse_ms",
                       "sql.parse_calls"), "plan.build_ms"
_EVAL, _FOLD = ("engine.evaluate_ms", "engine.evaluate_calls"), "ivm.fold_ms"

ENTRY_POINTS = (
    EntryPoint("api", "repro.api.session", "Session.execute", *_API,
               fires_on=("serve",)),
    EntryPoint("api", "repro.api.session", "Session.query", *_API,
               fires_on=("serve",)),
    EntryPoint("api", "repro.api.prepared", "PreparedStatement.execute",
               *_API, fires_on=WORKLOADS),
    EntryPoint("api", "repro.api.prepared", "PreparedStatement.query",
               *_API, fires_on=("serve",)),
    EntryPoint("api", "repro.api.prepared", "PreparedStatement.executemany",
               *_API, fires_on=("pipeline",)),
    EntryPoint("sql", "repro.sql.parser", "parse_statement", *_PARSE),
    EntryPoint("sql", "repro.sql.parser", "parse_prepared", *_PARSE,
               fires_on=("serve",)),
    EntryPoint("sql", "repro.sql.parser", "parse_query", *_PARSE),
    EntryPoint("plan", "repro.plan.builder", "build_plan", _PLAN,
               "plan.build_calls", fires_on=("serve",)),
    EntryPoint("plan", "repro.plan.rewrite", "optimize", _PLAN,
               fires_on=("serve",)),
    EntryPoint("plan", "repro.plan.cache", "PlanCache.get", _PLAN,
               fires_on=("serve",), observe=_plan_get),
    EntryPoint("engine", "repro.engine.executor", "evaluate", *_EVAL,
               fires_on=("serve", "pipeline"), observe=_rows_out),
    EntryPoint("engine", "repro.engine.executor", "stream_evaluate", *_EVAL),
    EntryPoint("engine", "repro.engine.executor", "join_relations",
               "engine.join_ms", fires_on=("pipeline",)),
    EntryPoint("engine", "repro.engine.executor", "aggregate_relation",
               "engine.aggregate_ms", fires_on=("serve",)),
    EntryPoint("engine", "repro.engine.executor", "window_relation",
               "engine.window_ms", fires_on=("pipeline",)),
    EntryPoint("txn", "repro.txn.manager", "Transaction.commit",
               "txn.commit_ms", "txn.commit_calls",
               fires_on=("pipeline", "oltp"), observe=_commit),
    EntryPoint("storage", "repro.storage.table", "VersionedTable.apply",
               "storage.apply_ms", "storage.apply_calls",
               fires_on=("pipeline", "oltp"), observe=_apply),
    EntryPoint("streams", "repro.streams.changes", "changes_between",
               "streams.changes_ms", "streams.changes_calls",
               fires_on=("pipeline", "oltp"), observe=_changes),
    EntryPoint("ivm", "repro.ivm.differentiator", "differentiate",
               "ivm.differentiate_ms", "ivm.differentiate_calls",
               fires_on=("pipeline", "oltp"), observe=_differentiate),
    EntryPoint("ivm", "repro.ivm.aggstate", "AggregateNodeState.fold",
               _FOLD, "ivm.fold_calls", fires_on=("pipeline", "oltp")),
    EntryPoint("ivm", "repro.ivm.aggstate", "AggregateNodeState.initialize",
               _FOLD, "ivm.state_inits"),
    EntryPoint("ivm", "repro.ivm.aggstate", "DistinctNodeState.fold",
               _FOLD, "ivm.fold_calls"),
    EntryPoint("ivm", "repro.ivm.aggstate", "DistinctNodeState.initialize",
               _FOLD, "ivm.state_inits"),
    EntryPoint("core", "repro.core.refresh", "RefreshEngine.refresh",
               "core.refresh_self_ms", "core.refresh_calls",
               fires_on=("pipeline", "oltp"), observe=_refresh),
    EntryPoint("scheduler", "repro.scheduler.scheduler",
               "Scheduler.run_until", "scheduler.self_ms",
               "scheduler.run_calls", fires_on=("pipeline",)),
    EntryPoint("durability", "repro.durability.wal", "WriteAheadLog.append",
               "durability.wal_ms", "durability.wal_appends",
               fires_on=("oltp",), observe=_wal_append, before=_wal_start),
    EntryPoint("durability", "repro.durability.manager",
               "DurabilityManager.checkpoint", "durability.checkpoint_ms",
               fires_on=("oltp",), observe=_checkpoint),
    EntryPoint("durability", "repro.durability.recovery", "recover",
               "durability.recover_ms", fires_on=("oltp",),
               observe=_recover),
    # Counted from the benchmark: the engine calls ``os.fsync`` for WAL
    # appends, WAL resets and checkpoint files.
    EntryPoint("durability", "os", "fsync", "durability.fsync_ms",
               "durability.fsyncs", fires_on=("oltp",)),
)


def install(tracer: Tracer) -> list[str]:
    """Wrap every entry point; returns one line per patched attribute.

    Raises if an entry point no longer exists, so a renamed layer
    boundary cannot silently drop out of the breakdown.
    """
    import repro  # noqa: F401  (loads the package before patching)

    patched: list[str] = []
    for entry in ENTRY_POINTS:
        module = importlib.import_module(entry.module)
        if "." in entry.attr:
            class_name, method = entry.attr.split(".")
            owner = getattr(module, class_name)
            setattr(owner, method, tracer.wrap(entry, owner.__dict__[method]))
            patched.append(f"{entry.module}.{entry.attr}")
            continue
        original = getattr(module, entry.attr)
        wrapped = tracer.wrap(entry, original)
        holders = [module] if entry.module == "os" else [
            mod for mod_name, mod in list(sys.modules.items())
            if mod_name.split(".")[0] == "repro" and mod is not None]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapped)
                    patched.append(f"{holder.__name__}.{attr}")
    return patched


def layer_metrics(tracer: Tracer, factors: dict, versions_retained: int,
                  traced_op_ms: list[float]) -> dict[str, float]:
    """Every per-layer metric of the traced run, by name."""
    metrics: Counter = Counter({name: 0 for name in METRIC_UNITS})
    calls, self_ms = tracer.calls(), tracer.self_ms(factors)
    for entry in ENTRY_POINTS:
        metrics[entry.ms] += self_ms[entry.name]
        if entry.calls is not None:
            metrics[entry.calls] += calls[entry.name]
    metrics.update(tracer.counts)
    metrics["plan.cache_hit_ratio"] = (
        tracer.plan_hits / tracer.plan_gets if tracer.plan_gets else 0.0)
    metrics["core.incremental_ratio"] = (
        tracer.refreshes_incremental / tracer.refreshes_with_data
        if tracer.refreshes_with_data else 0.0)
    metrics["storage.versions_retained"] = versions_retained
    metrics["trace.op_ms_p50"] = percentile(traced_op_ms, 0.5)
    return dict(metrics)


def coverage_problems(tracer: Tracer, workload: str,
                      metrics: dict[str, float]) -> list[str]:
    """Entry points that did not fire where they must, and predicted
    zeros that did not hold."""
    calls = tracer.calls()
    problems = [f"{entry.name} never fired on {workload}"
                for entry in ENTRY_POINTS
                if workload in entry.fires_on and not calls[entry.name]]
    for prefix in PREDICTED_ZEROS[workload]:
        for key, value in metrics.items():
            if key.startswith(prefix) and value:
                problems.append(f"{key} = {value} on {workload}, "
                                f"predicted zero")
    return problems
