"""Vectorized vs. row-loop join/aggregation kernels on compensation-shaped scans.

The aggregate cache pays for a hit with delta-compensation subjoins: a large
orderline *delta* joined against small dimension *mains* and folded into a
grouped aggregate — exactly the shape of CH-benCHmark Q3/Q5 compensation.
This benchmark times that scan at 10^5 and 10^6 orderline rows on the
engine's code-space kernels and on the row-loop oracle kept in the test
tree (``tests/query/rowloop_kernel.py``), asserts the results are
**bit-identical**, and asserts the vectorized speedup floor (>= 10x at
10^6 rows).  Run it from the repository root so ``tests`` is importable.

Partitions are bulk-built (no per-row insert path) so the measured time is
join + aggregation, not load.  Amounts sit on a 0.25 quantum so float sums
are exact and order-independent, making the bit-identity assertion
meaningful rather than tolerance-based.

Env knobs:
* ``BENCH_JOIN_KERNELS_ROWS`` — orderline rows at the largest scale
  (default 1_000_000; CI smoke sets 20_000).
* ``BENCH_JOIN_KERNELS_OUT`` — JSON output path
  (default ``BENCH_join_kernels.json``).
"""

import contextlib
import json
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from repro.query import (
    AggFunc,
    AggregateQuery,
    AggregateSpec,
    Col,
    ComboSpec,
    JoinEdge,
    QueryExecutor,
    TableRef,
)
from repro.storage import Catalog, ColumnDef, Partition, Schema, SqlType
from repro.storage.partition import LIVE
from tests.query.rowloop_kernel import rowloop_kernel

_MAX_ROWS = int(os.environ.get("BENCH_JOIN_KERNELS_ROWS", "1000000"))
_OUT = os.environ.get("BENCH_JOIN_KERNELS_OUT", "BENCH_join_kernels.json")

#: Orderline-delta scales measured; the issue's headline number is the
#: largest one.  Deduplicated so a reduced CI run measures one scale once.
SCALES = sorted({min(100_000, _MAX_ROWS), _MAX_ROWS})

SNAPSHOT = 10**9

_STATE = {}


def _bulk_delta(name: str, schema: Schema, columns, n: int) -> Partition:
    """Bulk-build a write-optimized partition (append-order dictionaries)
    without going through the per-row insert path."""
    part = Partition(name, "delta", schema)
    for col_name, values in columns.items():
        frag = part.column(col_name)
        dictionary = frag.dictionary
        codes = np.empty(n, dtype=np.int64)
        encode = dictionary.encode
        for i, value in enumerate(values):
            codes[i] = encode(value)
        frag._codes.extend(codes)
    part._cts.extend(np.full(n, 1, dtype=np.int64))
    part._dts.extend(np.full(n, LIVE, dtype=np.int64))
    return part


def _build_main(name: str, schema: Schema, columns, n: int) -> Partition:
    rows = [{k: columns[k][i] for k in columns} for i in range(n)]
    return Partition.build_main(name, schema, rows, cts=[1] * n, dts=[LIVE] * n)


def _dataset(n_orderlines: int):
    """Orderline delta + orders/customer/supplier mains, CH-Q3/Q5 shaped.

    Returns ``(catalog, parts)``: the catalog registers the schemas so the
    binder can resolve columns, while the combos carry the bulk-built
    partitions directly (the catalog tables themselves stay empty).
    """
    rng = random.Random(1234)
    n_orders = max(n_orderlines // 8, 4)
    n_customers = max(n_orders // 20, 4)
    n_suppliers = 100

    customer_schema = Schema(
        [ColumnDef("c_id", SqlType.INT, nullable=False), ColumnDef("c_state", SqlType.TEXT)],
        primary_key="c_id",
    )
    states = [f"S{i:02d}" for i in range(25)]
    customer = _build_main(
        "customer_main",
        customer_schema,
        {
            "c_id": list(range(n_customers)),
            "c_state": [rng.choice(states) for _ in range(n_customers)],
        },
        n_customers,
    )

    orders_schema = Schema(
        [
            ColumnDef("o_id", SqlType.INT, nullable=False),
            ColumnDef("o_c_id", SqlType.INT),
            ColumnDef("o_entry_d", SqlType.DATE),
        ],
        primary_key="o_id",
    )
    dates = [f"2013-06-{d:02d}" for d in range(1, 31)]
    orders = _build_main(
        "orders_main",
        orders_schema,
        {
            "o_id": list(range(n_orders)),
            "o_c_id": [rng.randrange(n_customers) for _ in range(n_orders)],
            "o_entry_d": [rng.choice(dates) for _ in range(n_orders)],
        },
        n_orders,
    )

    supplier_schema = Schema(
        [ColumnDef("s_id", SqlType.INT, nullable=False), ColumnDef("s_region", SqlType.TEXT)],
        primary_key="s_id",
    )
    supplier = _build_main(
        "supplier_main",
        supplier_schema,
        {
            "s_id": list(range(n_suppliers)),
            "s_region": [f"R{i % 5}" for i in range(n_suppliers)],
        },
        n_suppliers,
    )

    orderline_schema = Schema(
        [
            ColumnDef("ol_o_id", SqlType.INT),
            ColumnDef("ol_supply_id", SqlType.INT),
            ColumnDef("ol_amount", SqlType.FLOAT),
        ]
    )

    def ol_key():
        roll = rng.random()
        if roll < 0.01:
            return None  # NULL join key
        if roll < 0.03:
            return 10**8 + rng.randrange(n_orders)  # dangling key
        return rng.randrange(n_orders)

    orderline = _bulk_delta(
        "orderline_delta",
        orderline_schema,
        {
            "ol_o_id": [ol_key() for _ in range(n_orderlines)],
            "ol_supply_id": [rng.randrange(n_suppliers) for _ in range(n_orderlines)],
            "ol_amount": [rng.randrange(0, 40000) / 4.0 for _ in range(n_orderlines)],
        },
        n_orderlines,
    )
    catalog = Catalog()
    catalog.create_table("orderline", orderline_schema)
    catalog.create_table("orders", orders_schema)
    catalog.create_table("customer", customer_schema)
    catalog.create_table("supplier", supplier_schema)
    parts = {
        "orderline": orderline,
        "orders": orders,
        "customer": customer,
        "supplier": supplier,
    }
    return catalog, parts


def q3_shape() -> AggregateQuery:
    """Orderline ⋈ orders ⋈ customer, revenue by entry date and state."""
    return AggregateQuery(
        tables=[TableRef("orderline", "ol"), TableRef("orders", "o"), TableRef("customer", "c")],
        aggregates=[
            AggregateSpec(AggFunc.SUM, Col("ol_amount", "ol"), "revenue"),
            AggregateSpec(AggFunc.COUNT, None, "n"),
        ],
        group_by=[Col("o_entry_d", "o"), Col("c_state", "c")],
        join_edges=[
            JoinEdge("ol", "ol_o_id", "o", "o_id"),
            JoinEdge("o", "o_c_id", "c", "c_id"),
        ],
    )


def q5_shape() -> AggregateQuery:
    """Q3 plus the supplier dimension, revenue by region and state."""
    return AggregateQuery(
        tables=[
            TableRef("orderline", "ol"),
            TableRef("orders", "o"),
            TableRef("customer", "c"),
            TableRef("supplier", "s"),
        ],
        aggregates=[
            AggregateSpec(AggFunc.SUM, Col("ol_amount", "ol"), "revenue"),
            AggregateSpec(AggFunc.AVG, Col("ol_amount", "ol"), "avg_amount"),
            AggregateSpec(AggFunc.COUNT, None, "n"),
        ],
        group_by=[Col("s_region", "s"), Col("c_state", "c")],
        join_edges=[
            JoinEdge("ol", "ol_o_id", "o", "o_id"),
            JoinEdge("o", "o_c_id", "c", "c_id"),
            JoinEdge("ol", "ol_supply_id", "s", "s_id"),
        ],
    )


SHAPES = {"Q3-shape": q3_shape, "Q5-shape": q5_shape}


def get_dataset(n_rows: int):
    key = ("parts", n_rows)
    if key not in _STATE:
        _STATE[key] = _dataset(n_rows)
    return _STATE[key]


def _timed(fn, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


CELLS = [(shape, n) for shape in SHAPES for n in SCALES]


@pytest.mark.parametrize("shape,n_rows", CELLS, ids=[f"{s}-{n}" for s, n in CELLS])
def test_join_kernel_speedup(benchmark, figures, shape, n_rows):
    catalog, parts = get_dataset(n_rows)
    query = SHAPES[shape]()
    alias_map = {ref.alias: parts[ref.table] for ref in query.tables}
    executor = QueryExecutor(catalog)

    def run_kernel(context):
        with context():
            combo = ComboSpec(dict(alias_map))
            return executor.execute(query, SNAPSHOT, combos=[combo]).finalize()

    # The row loop is the yardstick: once is enough at 10^6 rows (seconds),
    # twice at smaller scales to shave scheduler noise.
    repeats = 1 if n_rows >= 500_000 else 2
    rowloop_rows, rowloop_s = _timed(lambda: run_kernel(rowloop_kernel), repeats)
    vector_rows, vector_s = _timed(
        lambda: run_kernel(contextlib.nullcontext), max(repeats, 3)
    )

    # Bit-identity: same rows, same order, same value types.
    assert vector_rows == rowloop_rows
    for row_a, row_b in zip(vector_rows, rowloop_rows):
        for va, vb in zip(row_a, row_b):
            assert type(va) is type(vb), (va, vb)
    assert vector_rows, "degenerate benchmark: empty join result"

    speedup = rowloop_s / vector_s if vector_s > 0 else float("inf")
    if n_rows >= 1_000_000:
        assert speedup >= 10.0, f"{shape}@{n_rows}: speedup {speedup:.1f}x < 10x"
    elif n_rows >= 100_000:
        assert speedup >= 3.0, f"{shape}@{n_rows}: speedup {speedup:.1f}x < 3x"

    benchmark.pedantic(
        lambda: run_kernel(contextlib.nullcontext), rounds=3, iterations=1
    )

    _STATE[("cell", shape, n_rows)] = {
        "shape": shape,
        "rows": n_rows,
        "groups": len(vector_rows),
        "seconds_rowloop": rowloop_s,
        "seconds_vectorized": vector_s,
        "speedup": speedup,
        "bit_identical": True,
    }
    report = figures.report(
        "Join kernels",
        "Q3/Q5-shaped compensation scans: row-loop vs. code-space kernels",
        "probe codes are bridged between dictionaries and matches expanded "
        "with repeat/prefix-sums; results are bit-identical by assertion",
        ["shape", "rows", "rowloop_s", "vectorized_s", "speedup"],
    )
    report.add_row(shape, n_rows, rowloop_s, vector_s, round(speedup, 1))


def test_write_bench_json():
    """Emit ``BENCH_join_kernels.json`` for the CI artifact."""
    cells = [value for key, value in _STATE.items() if key[0] == "cell"]
    assert cells, "no benchmark cells ran before the JSON writer"
    assert all(cell["bit_identical"] for cell in cells)
    payload = {
        "benchmark": "join_kernels",
        "max_rows": _MAX_ROWS,
        "scales": SCALES,
        "speedup_floor": {"1000000": 10.0, "100000": 3.0},
        "rows": sorted(cells, key=lambda c: (c["shape"], c["rows"])),
    }
    path = Path(_OUT)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert path.exists()
