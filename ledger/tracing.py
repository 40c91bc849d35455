"""Span recording around the engine's layer boundaries (traced runs only).

:func:`install` replaces each boundary in :data:`BOUNDARIES` with a thin
wrapper that records ``(name, start, end, parent, op_id)`` into a
:class:`SpanRecorder`; :func:`uninstall` puts every original back.  A
function the engine imports by name is patched in the module that calls
it (``repro.core.manager.apply_main_compensation``, not the defining
module), which is why each boundary names its call site.

Spans stay in memory until the run ends.  :func:`layer_metrics` turns
them, the per-query reports and the registry counters into the
per-layer metrics listed in ``METRICS.md``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from .stats import counter_delta, ratio, self_times

READ_HOT, CHURN, ERP = "ch_read_hot", "ch_htap_churn", "erp_durable"


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point: where it is patched, the span name it
    records, and the workloads on which it must record spans."""

    site: str  # "module" or "module:Class"
    attr: str
    span: str
    required_on: Tuple[str, ...]


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("repro.core.manager:AggregateCacheManager", "plan_for", "plan", (READ_HOT,)),
    Boundary("repro.core.manager", "parse_sql", "parse", (READ_HOT,)),
    Boundary("repro.core.manager:AggregateCacheManager", "execute", "cache",
             (READ_HOT, CHURN)),
    Boundary("repro.core.manager", "apply_main_compensation", "main_comp", (CHURN,)),
    Boundary("repro.core.manager", "build_memo", "delta_memo.build", (CHURN,)),
    Boundary("repro.core.manager", "advance_memo", "delta_memo.advance", (READ_HOT,)),
    Boundary("repro.core.recycler:RecycleContext", "lookup", "recycler.lookup", (CHURN,)),
    Boundary("repro.core.recycler:RecycleContext", "store", "recycler.store", (CHURN,)),
    Boundary("repro.query.executor:QueryExecutor", "execute", "executor", (CHURN,)),
    Boundary("repro.query.executor", "scan_partition", "scan", (CHURN,)),
    Boundary("repro.query.executor", "build_hash_table", "hash_build", (CHURN,)),
    Boundary("repro.query.executor", "probe_hash_join", "probe", (CHURN,)),
    Boundary("repro.query.executor", "aggregate_into", "aggregate", (CHURN,)),
    Boundary("repro.query.aggregates:GroupedAggregates", "merge", "agg_merge", (READ_HOT,)),
    Boundary("repro.query.aggregates:GroupedAggregates", "finalize", "agg_finalize",
             (READ_HOT,)),
    Boundary("repro.query.result:QueryResult", "from_grouped", "result", (READ_HOT,)),
    Boundary("repro.core.enforcement:MDEnforcer", "stamp", "md_stamp", (ERP, CHURN)),
    Boundary("repro.storage.table:Table", "insert", "table_write", (ERP, CHURN)),
    Boundary("repro.storage.table:Table", "update", "table_write", (CHURN,)),
    Boundary("repro.storage.table:Table", "delete", "table_write", (CHURN,)),
    Boundary("repro.txn.manager:Transaction", "commit", "commit", (ERP, CHURN)),
    Boundary("repro.reliability.wal:WriteAheadLog", "append", "wal_append", (ERP,)),
    Boundary("repro.database", "merge_table", "merge_table", (CHURN, ERP)),
    Boundary("repro.reliability.recovery", "merge_table", "merge_table", ()),
    Boundary("repro.core.manager:AggregateCacheManager", "before_merge", "cache_maint",
             (CHURN, ERP)),
    Boundary("repro.core.manager:AggregateCacheManager", "after_merge", "cache_maint",
             (CHURN, ERP)),
    Boundary("repro.reliability.checkpoint", "write_checkpoint", "checkpoint", (ERP,)),
    Boundary("repro.database", "demote_partition", "demote", (ERP,)),
    Boundary("repro.database", "recover_database", "recovery", (ERP,)),
    Boundary("repro.reliability.checkpoint", "read_checkpoint", "recovery.read", (ERP,)),
    Boundary("repro.reliability.recovery", "restore_checkpoint", "recovery.restore",
             (ERP,)),
    Boundary("repro.database:Database", "refresh_cache", "refresh", (CHURN,)),
)


class SpanRecorder:
    """In-memory span store for one traced pass (single-threaded: the
    ledger's databases run their subjoins serially)."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, op_id]
        self.op_kinds: List[str] = []
        self._stack: List[int] = []

    @property
    def op_id(self) -> int:
        return len(self.op_kinds) - 1

    def begin_op(self, kind: str) -> None:
        """Attribute the spans that follow to a new operation of ``kind``."""
        self.op_kinds.append(kind)

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else None, self.op_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def write(self, path: Path) -> None:
        """One JSON object per span, in recording order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                kind = self.op_kinds[op_id] if op_id >= 0 else "none"
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op_id": op_id, "op_kind": kind,
                }) + "\n")


def _owner(site: str):
    module_name, _, class_name = site.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def install(recorder: SpanRecorder) -> List[tuple]:
    """Wrap every boundary; returns the undo list for :func:`uninstall`."""
    undo: List[tuple] = []
    try:
        for boundary in BOUNDARIES:
            owner = _owner(boundary.site)
            original = inspect.getattr_static(owner, boundary.attr)
            owned = boundary.attr in vars(owner)
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(
                    recorder.wrap(boundary.span, original.__func__)
                )
            elif callable(original):
                wrapped = recorder.wrap(boundary.span, original)
            else:
                raise TypeError(f"{boundary.site}.{boundary.attr} is not callable")
            setattr(owner, boundary.attr, wrapped)
            undo.append((owner, boundary.attr, original, owned))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: Sequence[tuple]) -> None:
    for owner, attr, original, owned in reversed(undo):
        if owned:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


def missing_spans(recorder: SpanRecorder, workload: str) -> List[str]:
    """Boundaries that must record spans on ``workload`` but recorded none
    (spans of the correctness gate's own oracle runs do not count)."""
    kinds = recorder.op_kinds
    seen = {span[0] for span in recorder.spans
            if span[4] < 0 or kinds[span[4]] != "check"}
    return [
        f"{b.site}.{b.attr}"
        for b in BOUNDARIES
        if workload in b.required_on and b.span not in seen
    ]


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer metric -> (unit, better).  The order is the output order.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "plan.ms": ("ms", "lower"),
    "plan.cache_hit_ratio": ("ratio", "higher"),
    "parse.calls_per_query": ("count", "lower"),
    "cache.ms": ("ms", "lower"),
    "cache.entry_hit_ratio": ("ratio", "higher"),
    "cache.entries_built_per_kq": ("count", "lower"),
    "main_comp.ms": ("ms", "lower"),
    "main_comp.rows_per_query": ("count", "lower"),
    "delta_memo.build.ms": ("ms", "lower"),
    "delta_memo.advance.ms": ("ms", "lower"),
    "delta_memo.incremental_ratio": ("ratio", "higher"),
    "delta_memo.rows_saved_per_query": ("count", "higher"),
    "recycler.hit_ratio": ("ratio", "higher"),
    "recycler.lookups_per_query": ("count", "lower"),
    "prune.pruned_ratio": ("ratio", "higher"),
    "prune.evaluated_per_query": ("count", "lower"),
    "prune.pushdown_per_query": ("count", "higher"),
    "executor.ms": ("ms", "lower"),
    "scan.ms": ("ms", "lower"),
    "hash_build.ms": ("ms", "lower"),
    "probe.ms": ("ms", "lower"),
    "aggregate.ms": ("ms", "lower"),
    "executor.rows_aggregated_per_query": ("count", "lower"),
    "agg_merge.ms": ("ms", "lower"),
    "agg_merge.calls_per_query": ("count", "lower"),
    "agg_finalize.ms": ("ms", "lower"),
    "result.ms": ("ms", "lower"),
    "md_stamp.ms": ("ms", "lower"),
    "table_write.ms": ("ms", "lower"),
    "commit.ms": ("ms", "lower"),
    "wal_append.ms": ("ms", "lower"),
    "wal.fsync_ms": ("ms", "lower"),
    "wal.bytes_per_txn": ("bytes", "lower"),
    "merge_table.ms": ("ms", "lower"),
    "merge.rows_moved": ("count", "lower"),
    "cache_maint.ms": ("ms", "lower"),
    "checkpoint.ms": ("ms", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "demote.ms": ("ms", "lower"),
    "demote.bytes": ("bytes", "lower"),
    "recovery.checkpoint_ms": ("ms", "lower"),
    "recovery.replay_ms": ("ms", "lower"),
    "recovery.records_replayed": ("count", "lower"),
    "refresh.ms": ("ms", "lower"),
    "refresh.non_skip_per_call": ("count", "higher"),
    "governor.sheds": ("count", "lower"),
    "governor.shed_mb": ("MB", "lower"),
    "trace.spans_per_op": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Which operations a layer's time is averaged over.
_READ = ("plan", "parse", "cache", "main_comp", "delta_memo.build",
         "delta_memo.advance", "executor", "scan", "hash_build", "probe",
         "aggregate", "agg_merge", "agg_finalize", "result")
_WRITE = ("md_stamp", "table_write", "commit", "wal_append")
_MAINT = ("merge_table", "cache_maint", "checkpoint", "demote")


def layer_metrics(recorder: SpanRecorder, counters) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (0.0 where a layer did
    no work on this workload).  ``counters`` is the pass's
    :class:`~ledger.runner.PassResult`: its query reports, registry
    snapshots around the window, refresh decisions and recovery counts."""
    spans, kinds = recorder.spans, recorder.op_kinds
    selfs = self_times(spans)
    n_ops = {kind: kinds.count(kind) for kind in set(kinds)}
    self_s: Dict[Tuple[str, str], float] = {}
    calls: Dict[Tuple[str, str], int] = {}
    for span, own in zip(spans, selfs):
        kind = kinds[span[4]] if span[4] >= 0 else "none"
        key = (span[0], kind)
        self_s[key] = self_s.get(key, 0.0) + own
        calls[key] = calls.get(key, 0) + 1
    queries, txns = n_ops.get("query", 0), n_ops.get("txn", 0)
    merges, refreshes = n_ops.get("merge", 0), n_ops.get("refresh", 0)

    def per(kind: str, names: Sequence[str], base: int) -> float:
        return ratio(sum(self_s.get((n, kind), 0.0) for n in names) * 1e3, base)

    out: Dict[str, float] = {}
    for name in _READ:
        out[f"{name}.ms"] = per("query", [name], queries)
    for name in _WRITE:
        out[f"{name}.ms"] = per("txn", [name], txns)
    for name in _MAINT:
        out[f"{name}.ms"] = per("merge", [name], merges)
    out["refresh.ms"] = per("refresh", ["refresh"], refreshes)

    reports = counters.reports
    before, after = counters.registry_before, counters.registry_after

    def delta(name: str, label: str = "") -> float:
        return counter_delta(before, after, name, label)

    plan_hits = delta("repro_plan_cache_lookups_total", 'outcome="hit"')
    out["plan.cache_hit_ratio"] = ratio(
        plan_hits, delta("repro_plan_cache_lookups_total"))
    out["parse.calls_per_query"] = ratio(calls.get(("parse", "query"), 0), queries)
    out["cache.entry_hit_ratio"] = ratio(
        delta("repro_cache_lookups_total", 'outcome="hit"'),
        delta("repro_cache_lookups_total"))
    out["cache.entries_built_per_kq"] = ratio(
        1000.0 * sum(r.entries_created for r in reports), queries)
    out["main_comp.rows_per_query"] = ratio(
        sum(r.invalidated_rows_compensated for r in reports), queries)
    modes = [r.delta_memo_mode for r in reports if r.delta_memo_mode]
    out["delta_memo.incremental_ratio"] = ratio(modes.count("incremental"), len(modes))
    out["delta_memo.rows_saved_per_query"] = ratio(
        sum(r.delta_memo_rows_saved for r in reports), queries)
    hits = sum(r.recycler_hits for r in reports)
    probes = hits + sum(r.recycler_misses + r.recycler_stale for r in reports)
    out["recycler.hit_ratio"] = ratio(hits, probes)
    out["recycler.lookups_per_query"] = ratio(
        calls.get(("recycler.lookup", "query"), 0), queries)
    total = sum(r.prune.combos_total for r in reports)
    pruned = sum(r.prune.pruned_total for r in reports)
    out["prune.pruned_ratio"] = ratio(pruned, total)
    out["prune.evaluated_per_query"] = ratio(total - pruned, queries)
    out["prune.pushdown_per_query"] = ratio(
        sum(r.prune.pushdown_filters for r in reports), queries)
    out["executor.rows_aggregated_per_query"] = ratio(
        sum(r.executor_stats.rows_aggregated for r in reports), queries)
    out["agg_merge.calls_per_query"] = ratio(
        calls.get(("agg_merge", "query"), 0), queries)
    out["wal.fsync_ms"] = ratio(
        delta("repro_wal_fsync_seconds_sum") * 1e3,
        delta("repro_wal_fsync_seconds_count"))
    out["wal.bytes_per_txn"] = ratio(delta("repro_wal_bytes_total"), txns)
    out["merge.rows_moved"] = ratio(counters.merge_rows_moved, merges)
    written = counters.file_bytes_written
    out["checkpoint.bytes"] = ratio(written.get("checkpoints", 0), merges)
    out["demote.bytes"] = ratio(written.get("cold", 0), merges)
    # Recovery: checkpoint read + restore, and everything else the
    # recovery pass did (WAL scan and replay, including the writes it
    # re-applies).
    durations = {}
    for span in spans:
        if span[4] >= 0 and kinds[span[4]] == "recovery":
            durations[span[0]] = durations.get(span[0], 0.0) + span[2] - span[1]
    checkpoint_s = durations.get("recovery.read", 0.0) + durations.get(
        "recovery.restore", 0.0)
    out["recovery.checkpoint_ms"] = checkpoint_s * 1e3
    out["recovery.replay_ms"] = max(
        0.0, durations.get("recovery", 0.0) - checkpoint_s) * 1e3
    out["recovery.records_replayed"] = float(counters.records_replayed)
    out["refresh.non_skip_per_call"] = ratio(
        sum(1 for call in counters.refresh_decisions for d in call
            if d.action != "skip"),
        len(counters.refresh_decisions))
    out["governor.sheds"] = delta("repro_governor_sheds_total")
    out["governor.shed_mb"] = delta("repro_governor_shed_bytes_total") / (1024 * 1024)
    timed = queries + txns + merges + refreshes
    out["trace.spans_per_op"] = ratio(
        sum(1 for span in spans if span[4] >= 0 and kinds[span[4]] in
            ("query", "txn", "merge", "refresh")), timed)
    return {name: float(out.get(name, 0.0)) for name in LAYER_METRICS}
