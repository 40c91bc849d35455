"""Plan cache — repeated-query throughput with and without cached plans.

The aggregate cache exists because workloads repeat their queries; the
plan cache removes the *other* fixed cost of a repeated statement: parse,
bind, subjoin enumeration, prune decisions, and cost-seeded join-order
selection.  This benchmark runs CH-benCHmark Q3 (4 tables, 16 subjoins)
and Q5 (7 tables, 128 subjoins) through the full ``Database.query`` path
repeatedly — the steady state is all plan-cache hits — against an
identical database with the plan cache disabled (``plan_cache_size=0``).

Results are asserted bit-identical across both modes: a cached plan
replays the same subjoin list in the same combination order, so caching
cannot change a single bit of the answer.
"""

import os

import pytest

from repro import Database
from repro.core.strategies import CacheConfig
from repro.workloads import CH_QUERIES, ChBenchmark, ChConfig

#: (label, plan cache capacity).
MODES = [
    ("nocache", 0),
    ("cached", 128),
]

QUERY_NAMES = ["Q3", "Q5"]

_SCALE = int(os.environ.get("BENCH_PLAN_CACHE_SCALE", "2"))

_STATE = {}


def get_database(capacity: int) -> Database:
    key = ("db", capacity)
    if key not in _STATE:
        db = Database(cache_config=CacheConfig(plan_cache_size=capacity))
        ChBenchmark(
            db,
            ChConfig(
                warehouses=_SCALE,
                districts_per_warehouse=4,
                customers_per_district=25,
                orders_per_district=60,
                orderlines_per_order=8,
                items=300,
                suppliers=20,
                delta_fraction=0.05,
                seed=77,
            ),
        ).load()
        _STATE[key] = db
    return _STATE[key]


CELLS = [(name, mode) for name in QUERY_NAMES for mode in MODES]


@pytest.mark.parametrize(
    "query_name,mode", CELLS, ids=[f"{n}-{m[0]}" for n, m in CELLS]
)
def test_plan_cache_throughput(benchmark, figures, query_name, mode):
    label, capacity = mode
    db = get_database(capacity)
    sql = CH_QUERIES[query_name]

    def run():
        return db.query(sql)

    result = run()  # warm: admits the aggregate-cache entry and the plan
    reference = _STATE.setdefault(("rows", query_name), result.rows)
    # Bit-identity across cache on/off.
    assert result.rows == reference, f"{query_name} {label} diverged"
    if capacity:
        before = db.plan_cache.stats()
        assert run().rows == reference
        after = db.plan_cache.stats()
        assert after["hits"] > before["hits"], "steady state must hit the plan cache"
    else:
        assert len(db.plan_cache) == 0
    benchmark.pedantic(run, rounds=5, iterations=2)
    elapsed = benchmark.stats.stats.min if benchmark.stats is not None else float("nan")
    report = figures.report(
        "Plan cache",
        "CH-benCHmark Q3/Q5: repeated-query latency, plan cache on vs. off",
        "a plan-cache hit skips parse, bind, subjoin enumeration, pruning, "
        "and join-order selection; results are bit-identical in all modes",
        ["query", "mode", "seconds"],
    )
    report.add_row(query_name, label, elapsed)
