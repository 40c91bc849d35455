"""Partition-aware query execution (Section 2.3.1).

A query over partitioned tables is the union of its *subjoins*: one join per
combination of partitions, one partition per referenced table.  The executor
takes an explicit list of :class:`ComboSpec` combinations — the plain path
evaluates all ``k1 × ... × kt`` of them, the aggregate cache passes the
compensation subset (everything except the cached all-main combination),
and the object-aware layer passes a pruned subset plus per-combination
pushdown filters (Section 5.3).

Work that repeats across combinations referencing the same partition —
visible-row scans with local filters and join-side hash tables — is memoized
per ``execute`` call, which mirrors how a real engine would share scans
across union branches.

Each subjoin aggregates into a private grouped partial, and the partials
are merged into the result **in combination order**.  That order fixes
the floating-point additions, which cached entries, delta memos and the
recycler all replay bit for bit.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import QueryError
from ..obs.trace import Span
from ..plan.cost import choose_join_order, tier_weighted_costs
from ..plan.logical import Binder
from ..storage.catalog import Catalog
from ..storage.partition import Partition
from .aggregates import GroupedAggregates
from .expr import Expr
from .operators import (
    JoinedProvider,
    aggregate_into,
    build_hash_table,
    probe_hash_join,
    scan_partition,
)
from .query import AggregateQuery


@dataclass(frozen=True)
class RowRange:
    """A contiguous physical row interval ``[start, stop)`` of one partition.

    Used as a ``ComboSpec.fixed_rows`` value: unlike an explicit index
    array (which bypasses visibility entirely), a range restricts the
    normal *snapshot-visibility* scan to the interval, and the stamp
    vectors are sliced before the visibility compare — the scan never
    materializes rows outside the range.  Delta-memo compensation uses
    this to touch only the rows appended since a watermark.
    """

    start: int
    stop: int

    def __len__(self) -> int:
        return max(0, self.stop - self.start)


@dataclass
class ComboSpec:
    """One subjoin: a partition per alias, plus per-alias pushdown filters.

    ``extra_filters`` carries combination-specific local predicates — the
    join-predicate-pushdown ranges derived from matching dependencies — that
    must be applied to that alias' scan *for this subjoin only*.

    ``fixed_rows`` pins an alias to an explicit row-index set *instead of*
    the snapshot-visibility scan.  The aggregate cache uses this for main
    compensation: the "invalidated rows" side and the "rows visible at entry
    creation" sides of the subtraction are both fixed sets that no current
    snapshot describes.  Local and extra filters still apply on top.
    A :class:`RowRange` value instead *keeps* the snapshot-visibility scan
    but restricts it to the contiguous interval (delta-memo compensation).
    """

    partitions: Dict[str, Partition]
    extra_filters: Dict[str, List[Expr]] = field(default_factory=dict)
    fixed_rows: Dict[str, Union[np.ndarray, RowRange]] = field(default_factory=dict)

    def describe(self) -> str:
        """Compact '(alias:partition, ...)' rendering for stats/plans."""
        return describe_partitions(self.partitions)


def describe_partitions(partitions: Dict[str, Partition]) -> str:
    """Canonical '(alias:partition, ...)' label of a partition assignment —
    shared by stats, plans, and trace spans so they compare textually."""
    inner = ", ".join(
        f"{alias}:{part.name}" for alias, part in sorted(partitions.items())
    )
    return f"({inner})"


@dataclass
class ExecutionStats:
    """Counters filled during one ``execute`` call.

    ``subjoins`` and ``probe_sides`` list one entry per evaluated subjoin,
    in combination order.
    """

    combos_evaluated: int = 0
    combos_empty: int = 0
    rows_aggregated: int = 0
    subjoins: List[str] = field(default_factory=list)
    #: Per subjoin, the alias chosen as the probe (non-hashed) side.
    probe_sides: List[str] = field(default_factory=list)


def all_partition_combos(
    query: AggregateQuery, catalog: Catalog
) -> List[Dict[str, Partition]]:
    """The full cartesian product of partitions per referenced table."""
    per_alias: List[List[Tuple[str, Partition]]] = []
    for ref in query.tables:
        table = catalog.table(ref.table)
        per_alias.append([(ref.alias, p) for p in table.partitions()])
    return [dict(chosen) for chosen in itertools.product(*per_alias)]


def main_only_combos(
    query: AggregateQuery, catalog: Catalog
) -> List[Dict[str, Partition]]:
    """Combinations in which every alias reads a main partition.

    A plain table contributes its one main; an aged table contributes its
    hot and cold mains, so a query over aged tables has several all-main
    combinations (one aggregate cache entry each, Section 5.4).
    """
    return [
        combo
        for combo in all_partition_combos(query, catalog)
        if all(p.kind == "main" for p in combo.values())
    ]


def _fixed_rows_key(fixed) -> object:
    """Memo-key component for a ``fixed_rows`` value.

    Ranges key by value — two subjoins pinning the same interval share one
    scan — while index arrays key by identity (their contents are not
    hashable and callers reuse the same array object across subjoins).
    ``None`` (plain snapshot scan) stays None so it cannot collide with an
    array id.
    """
    if fixed is None:
        return None
    if isinstance(fixed, RowRange):
        return (fixed.start, fixed.stop)
    return id(fixed)


def _filter_fixed_rows(
    alias: str,
    partition: Partition,
    rows: np.ndarray,
    filters: Sequence[Expr],
) -> np.ndarray:
    """Apply local filters to an explicitly pinned row set."""
    from .operators import PartitionProvider

    rows = np.asarray(rows, dtype=np.int64)
    if not filters or not len(rows):
        return rows
    provider = PartitionProvider(alias, partition, rows)
    keep = np.ones(len(rows), dtype=bool)
    for expr in filters:
        keep &= expr.evaluate(provider).astype(bool)
    return rows[keep]


class QueryExecutor:
    """Evaluates aggregate queries over explicit partition combinations."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._binder = Binder(catalog)

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def bind(self, query: AggregateQuery) -> AggregateQuery:
        """Resolve and validate column references; see
        :meth:`repro.plan.logical.Binder.bind` (the executor delegates to
        the planner layer's binder, which owns the binding rules)."""
        return self._binder.bind(query)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query: AggregateQuery,
        snapshot: int,
        combos: Optional[Sequence[ComboSpec]] = None,
        into: Optional[GroupedAggregates] = None,
        sign: int = 1,
        stats: Optional[ExecutionStats] = None,
        span_sink: Optional[List[Span]] = None,
        cancel=None,
        recycle=None,
    ) -> GroupedAggregates:
        """Evaluate the union of the given subjoins into a grouped state.

        ``combos`` defaults to the full partition product.  ``into`` lets
        the aggregate cache fold compensation contributions into (a copy of)
        a cached value; ``sign=-1`` subtracts, for main compensation.

        Every subjoin is evaluated into a private partial which is merged
        into the result **in combination order**; that order fixes the
        floating-point additions every cached value is pinned to.

        ``span_sink`` collects one trace :class:`Span` per evaluated
        subjoin (partition assignment, rows scanned, probe side, pushdown
        filter counts), appended in combination order.

        ``cancel`` is an optional
        :class:`~repro.governor.deadline.CancelToken`: it is checked
        before every subjoin, so a cancelled or timed-out query aborts at
        the next subjoin boundary with a typed
        :class:`~repro.errors.QueryAborted` instead of running to
        completion.  An abort folds nothing further into ``into``.

        ``recycle`` is an optional
        :class:`~repro.core.recycler.RecycleContext`: each subjoin probes
        the shared cross-query recycler before evaluating and publishes its
        joined index state after.  A hit replays the stored tuples through
        a fresh aggregation (same floats, same fold order), so results and
        stats are bit-identical with recycling on or off.
        """
        if cancel is not None:
            cancel.check()
        bound = self.bind(query)
        if combos is None:
            combos = [
                ComboSpec(partitions)
                for partitions in all_partition_combos(bound, self._catalog)
            ]
        grouped = into if into is not None else GroupedAggregates(bound.aggregates)
        residuals = bound.residual_filters()
        local_filters = {ref.alias: bound.local_filters(ref.alias) for ref in bound.tables}
        scan_memo: Dict[tuple, np.ndarray] = {}
        hash_memo: Dict[tuple, object] = {}
        for combo in combos:
            if cancel is not None:
                cancel.check()
            partial, span = self._execute_combo(
                bound, residuals, local_filters, snapshot, combo, sign,
                scan_memo, hash_memo, stats, grouped.new_like,
                span_sink is not None, recycle,
            )
            if span is not None:
                span_sink.append(span)
            if partial is not None:
                grouped.merge(partial)
        return grouped

    def _scan(
        self,
        alias: str,
        combo: ComboSpec,
        local_filters: Dict[str, List[Expr]],
        snapshot: int,
        scan_memo: Dict[tuple, np.ndarray],
    ) -> np.ndarray:
        partition = combo.partitions[alias]
        extra = combo.extra_filters.get(alias, [])
        fixed = combo.fixed_rows.get(alias)
        key = (
            alias,
            id(partition),
            tuple(sorted(e.canonical() for e in extra)),
            _fixed_rows_key(fixed),
        )
        rows = scan_memo.get(key)
        if rows is None:
            filters = local_filters[alias] + extra
            if isinstance(fixed, RowRange):
                visible = partition.visible_rows_in(snapshot, fixed.start, fixed.stop)
                rows = _filter_fixed_rows(alias, partition, visible, filters)
            elif fixed is not None:
                rows = _filter_fixed_rows(alias, partition, fixed, filters)
            else:
                rows = scan_partition(alias, partition, snapshot, filters)
            scan_memo[key] = rows
        return rows

    def _execute_combo(
        self,
        query: AggregateQuery,
        residuals: List[Expr],
        local_filters: Dict[str, List[Expr]],
        snapshot: int,
        combo: ComboSpec,
        sign: int,
        scan_memo: Dict[tuple, np.ndarray],
        hash_memo: Dict[tuple, object],
        stats: Optional[ExecutionStats],
        partial_factory,
        want_span: bool,
        recycle=None,
    ) -> Tuple[Optional[GroupedAggregates], Optional[Span]]:
        """Evaluate one subjoin into a fresh partial grouped state.

        Returns ``(partial, span)``; the partial is None when the subjoin
        is empty and the span is None unless requested.  ``stats`` is
        filled in place.  The caller merges the partial in combination
        order.
        """
        if not want_span:
            partial = self._execute_combo_inner(
                query, residuals, local_filters, snapshot, combo, sign,
                scan_memo, hash_memo, stats, partial_factory, None, recycle,
            )
            return partial, None
        attrs: Dict[str, object] = {
            "combo": combo.describe(),
            "status": "evaluated",
        }
        if combo.extra_filters:
            attrs["pushdown_filters"] = {
                alias: len(filters)
                for alias, filters in sorted(combo.extra_filters.items())
                if filters
            }
        if combo.fixed_rows:
            attrs["fixed_rows"] = sorted(combo.fixed_rows)
        if sign != 1:
            attrs["sign"] = sign
        started = time.perf_counter()
        partial = self._execute_combo_inner(
            query, residuals, local_filters, snapshot, combo, sign,
            scan_memo, hash_memo, stats, partial_factory, attrs, recycle,
        )
        span = Span(
            name="subjoin",
            start=started,
            duration=time.perf_counter() - started,
            attrs=attrs,
        )
        return partial, span

    def _execute_combo_inner(
        self,
        query: AggregateQuery,
        residuals: List[Expr],
        local_filters: Dict[str, List[Expr]],
        snapshot: int,
        combo: ComboSpec,
        sign: int,
        scan_memo: Dict[tuple, np.ndarray],
        hash_memo: Dict[tuple, object],
        stats: Optional[ExecutionStats],
        partial_factory,
        attrs: Optional[Dict[str, object]],
        recycle=None,
    ) -> Optional[GroupedAggregates]:
        missing = {ref.alias for ref in query.tables} - set(combo.partitions)
        if missing:
            raise QueryError(f"combo misses partitions for aliases {sorted(missing)}")
        if stats is not None:
            stats.combos_evaluated += 1
            stats.subjoins.append(combo.describe())
        # Cross-query recycling: probe the shared subjoin store before doing
        # any work.  A hit replays the stored joined indices through a fresh
        # aggregation — deterministic evaluation means the recycled tuples
        # are the exact tuples this subjoin would have produced, so results
        # (and stats, and span attrs apart from ``recycled``) match the
        # recompute bit for bit.
        recycle_key = None
        if recycle is not None:
            recycle_key = recycle.key_for(combo)
            if recycle_key is not None:
                hit = recycle.lookup(recycle_key, combo)
                if hit is not None:
                    return self._replay_recycled(
                        query, hit, sign, stats, attrs, partial_factory
                    )
        # Scan every alias up front (memoized across subjoins): the counts
        # drive build-side selection, and any empty input empties the join.
        scans = {
            ref.alias: self._scan(ref.alias, combo, local_filters, snapshot, scan_memo)
            for ref in query.tables
        }
        row_counts = {alias: len(rows) for alias, rows in scans.items()}
        # Runtime ordering ranks tier-weighted costs: identical to raw
        # counts while every partition is resident, biased toward probing
        # the memory-mapped side (hash tables built on hot inputs) once
        # cold mains participate.
        first, steps = choose_join_order(
            query, tier_weighted_costs(row_counts, combo.partitions)
        )
        if stats is not None:
            stats.probe_sides.append(first)
        if attrs is not None:
            attrs["rows_scanned"] = dict(sorted(row_counts.items()))
            attrs["probe_side"] = first
            mapped = sorted(
                alias
                for alias, partition in combo.partitions.items()
                if getattr(partition, "storage_tier", "resident") == "mapped"
            )
            if mapped:
                attrs["tier"] = {alias: "mapped" for alias in mapped}

        def empty() -> None:
            if stats is not None:
                stats.combos_empty += 1
            if attrs is not None:
                attrs["status"] = "empty"
            if recycle_key is not None:
                recycle.store(recycle_key, combo, None, row_counts, first)

        if row_counts[first] == 0:
            return empty()
        provider = JoinedProvider(
            {first: combo.partitions[first]}, {first: scans[first]}
        )
        for step in steps:
            partition = combo.partitions[step.alias]
            key_columns = tuple(edge.side_for(step.alias) for edge in step.edges)
            extra = combo.extra_filters.get(step.alias, [])
            hash_key = (
                step.alias,
                id(partition),
                key_columns,
                tuple(sorted(e.canonical() for e in extra)),
                _fixed_rows_key(combo.fixed_rows.get(step.alias)),
            )
            table = hash_memo.get(hash_key)
            if table is None:
                table = build_hash_table(partition, scans[step.alias], key_columns)
                hash_memo[hash_key] = table
            if not table:
                return empty()
            probe_columns = [edge.other(step.alias) for edge in step.edges]
            provider = probe_hash_join(
                provider, probe_columns, step.alias, partition, table
            )
            if provider.row_count() == 0:
                return empty()
        for residual in residuals:
            mask = residual.evaluate(provider).astype(bool)
            provider = provider.select(mask)
            if provider.row_count() == 0:
                return empty()
        if recycle_key is not None:
            recycle.store(recycle_key, combo, provider, row_counts, first)
        partial = partial_factory()
        n = aggregate_into(partial, provider, query.group_by, query.aggregates, sign)
        if stats is not None:
            stats.rows_aggregated += n
        if attrs is not None:
            attrs["rows_aggregated"] = n
        return partial

    def _replay_recycled(
        self,
        query: AggregateQuery,
        hit,
        sign: int,
        stats: Optional[ExecutionStats],
        attrs: Optional[Dict[str, object]],
        partial_factory,
    ) -> Optional[GroupedAggregates]:
        """Fold a recycled subjoin: replay the stored stats/attrs the
        recompute would have produced, then aggregate the stored joined
        tuples live (group-by and aggregates belong to *this* query, not
        the producer's)."""
        if stats is not None:
            stats.probe_sides.append(hit.probe_side)
        if attrs is not None:
            attrs["rows_scanned"] = dict(sorted(hit.row_counts.items()))
            attrs["probe_side"] = hit.probe_side
            mapped = sorted(
                alias
                for alias, partition in hit.partitions.items()
                if getattr(partition, "storage_tier", "resident") == "mapped"
            )
            if mapped:
                attrs["tier"] = {alias: "mapped" for alias in mapped}
            attrs["recycled"] = True
        if hit.indices is None:
            if stats is not None:
                stats.combos_empty += 1
            if attrs is not None:
                attrs["status"] = "empty"
            return None
        provider = JoinedProvider(dict(hit.partitions), dict(hit.indices))
        partial = partial_factory()
        n = aggregate_into(partial, provider, query.group_by, query.aggregates, sign)
        if stats is not None:
            stats.rows_aggregated += n
        if attrs is not None:
            attrs["rows_aggregated"] = n
        return partial
