"""The correctness gate: every checked answer must equal the uncached
evaluation of the same statement at the same snapshot.

The oracle runs the executor over every partition combination of the
bound statement (what ``ExecutionStrategy.UNCACHED`` evaluates), called
directly so that checking leaves the cache manager, the plan cache and
the memory the governor tracks exactly as the measured run left them.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.query.query import AggregateQuery
from repro.query.result import QueryResult

FLOAT_REL_TOL = 1e-9


def bind_statements(db, statements: Sequence[str]) -> List[AggregateQuery]:
    """Parse and bind each statement once, ahead of checking, so that the
    checks add nothing to the engine's parse cache."""
    return [db.executor.bind(db.parse(sql)) for sql in statements]


def oracle(db, bound: AggregateQuery, snapshot: int) -> QueryResult:
    """The uncached answer to a bound statement as of ``snapshot``."""
    with db.lock.read():
        grouped = db.executor.execute(bound, snapshot)
    return QueryResult.from_grouped(bound, grouped)


def _value_problem(expected, actual) -> Optional[str]:
    if type(expected) is not type(actual):
        return f"type {type(actual).__name__} != {type(expected).__name__}"
    if isinstance(expected, float):
        if expected == actual or math.isclose(
            expected, actual, rel_tol=FLOAT_REL_TOL, abs_tol=0.0
        ):
            return None
        return f"{actual!r} != {expected!r} (rel tol {FLOAT_REL_TOL})"
    if expected != actual:
        return f"{actual!r} != {expected!r}"
    return None


def _order_key(value):
    # NULLs first, as the engine's ORDER BY sorts them.
    return (value is not None, value)


def order_problem(result: QueryResult, order_by) -> Optional[str]:
    """None when ``result.rows`` follow ``order_by``, else the first
    adjacent pair that breaks it."""
    if not order_by:
        return None
    indexes = [(result.column_index(item.column), item.descending) for item in order_by]
    for pos in range(1, len(result.rows)):
        before, after = result.rows[pos - 1], result.rows[pos]
        for idx, descending in indexes:
            a, b = _order_key(before[idx]), _order_key(after[idx])
            if a == b:
                continue
            if (a > b) != descending:
                return f"rows {pos - 1} and {pos} break ORDER BY on column {idx}"
            break
    return None


def compare(expected: QueryResult, actual: QueryResult, n_keys: int,
            order_by: Sequence = ()) -> List[str]:
    """Every way ``actual`` differs from ``expected`` (empty = equal).

    Rows are matched by their first ``n_keys`` columns (the group key):
    group keys, integers and strings must be equal, floats agree within a
    relative 1e-9, every value has the same Python type, and ``actual``
    is sorted by ``order_by``.
    """
    problems: List[str] = []
    if actual.columns != expected.columns:
        return [f"columns {actual.columns} != {expected.columns}"]
    if len(actual.rows) != len(expected.rows):
        problems.append(f"{len(actual.rows)} rows != {len(expected.rows)}")
    by_key = {tuple(row[:n_keys]): row for row in expected.rows}
    for row in actual.rows:
        key = tuple(row[:n_keys])
        want = by_key.get(key)
        if want is None:
            problems.append(f"unexpected group {key!r}")
            continue
        for column, a, e in zip(actual.columns, row, want):
            problem = _value_problem(e, a)
            if problem:
                problems.append(f"group {key!r} column {column}: {problem}")
    problem = order_problem(actual, order_by)
    if problem:
        problems.append(problem)
    return problems


def check(db, bound: AggregateQuery, snapshot: int, actual: QueryResult) -> List[str]:
    """Compare one answer with the oracle at the snapshot it was read at."""
    expected = oracle(db, bound, snapshot)
    return compare(expected, actual, len(bound.group_by), bound.order_by)
