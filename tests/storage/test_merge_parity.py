"""The code-space delta merge against a row-wise oracle.

``_build_group`` merges in code space: a stamp mask selects the surviving
rows, each column's dictionary is rebuilt from the values those rows
reference, and codes are remapped through a translation table.  The oracle
below is the original row-at-a-time merge — decode every surviving row
with ``get_row`` and re-encode it with ``Partition.build_main``.  The two
must agree bit for bit: dictionary values *and* their Python types, codes,
``cts``, ``dts``, and the moved/dropped counts.  Cold-store re-attachment
after recovery CRC-matches cold files against a main rebuilt from a
checkpoint, so any divergence would silently keep cold mains resident.
"""

import tempfile

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import (
    LIVE,
    ColumnDef,
    Partition,
    Schema,
    SqlType,
    Table,
    merge_table,
    threshold_aging,
)
from repro.storage.coldstore import demote_partition
from repro.storage.merge import _build_group


def build_group_rowwise(table, group, snapshot, keep_history):
    """Row-at-a-time group rebuild: the oracle for the code-space merge."""
    rows, cts, dts = [], [], []
    moved = 0
    dropped = 0
    for partition in group.partitions():
        cts_arr = partition.cts_array()
        dts_arr = partition.dts_array()
        for row in range(partition.row_count):
            if cts_arr[row] > snapshot:
                raise StorageError(
                    f"row created by future transaction {int(cts_arr[row])} "
                    f"found during merge at snapshot {snapshot}"
                )
            invalidated = dts_arr[row] != LIVE and dts_arr[row] <= snapshot
            if invalidated and not keep_history:
                dropped += 1
                continue
            rows.append(partition.get_row(row))
            cts.append(int(cts_arr[row]))
            dts.append(int(dts_arr[row]))
            if partition.kind == "delta":
                moved += 1
    new_main = Partition.build_main(group.main.name, table.schema, rows, cts, dts)
    new_delta = Partition(group.delta.name, "delta", table.schema)
    return new_main, new_delta, moved, dropped


def make_table(aged: bool, separate_update_delta: bool) -> Table:
    schema = Schema(
        [
            ColumnDef("id", SqlType.INT, nullable=False),
            ColumnDef("year", SqlType.INT, nullable=False),
            ColumnDef("a", SqlType.INT),
            ColumnDef("s", SqlType.TEXT),
            ColumnDef("f", SqlType.FLOAT),
        ],
        primary_key="id",
    )
    return Table(
        "t",
        schema,
        aging_rule=threshold_aging("year", 2014) if aged else None,
        separate_update_delta=separate_update_delta,
    )


def typed(values):
    return [(type(v), v) for v in values]


def assert_same_build(table, group, snapshot, keep_history):
    expected = build_group_rowwise(table, group, snapshot, keep_history)
    actual = _build_group(table, group, snapshot, keep_history)
    exp_main, exp_delta, exp_moved, exp_dropped = expected
    main, delta, moved, dropped = actual
    assert (moved, dropped) == (exp_moved, exp_dropped)
    assert main.name == exp_main.name and main.kind == "main"
    assert delta.name == exp_delta.name and delta.row_count == 0
    assert main.column_names() == exp_main.column_names()
    for name in main.column_names():
        fragment, exp_fragment = main.column(name), exp_main.column(name)
        values = fragment.dictionary.values()
        assert typed(values) == typed(exp_fragment.dictionary.values()), name
        # Sign of zero is a value the JSON cold files keep: compare bits.
        assert [repr(v) for v in values] == [
            repr(v) for v in exp_fragment.dictionary.values()
        ], name
        assert fragment.codes().dtype == np.int64
        assert fragment.codes().tolist() == exp_fragment.codes().tolist(), name
    assert main.cts_array().tolist() == exp_main.cts_array().tolist()
    assert main.dts_array().tolist() == exp_main.dts_array().tolist()
    assert main.cts_array().dtype == main.dts_array().dtype == np.int64


def run_history(table, ops, cold_dir):
    """Apply ``ops`` to ``table``; returns the last transaction id used."""
    tid = 0
    next_id = 0
    for op in ops:
        tid += 1
        live = sorted(table._pk_index)
        kind = op[0]
        if kind == "ins":
            _, year, a, s, f = op
            table.insert({"id": next_id, "year": year, "a": a, "s": s, "f": f}, tid=tid)
            next_id += 1
        elif kind == "upd" and live:
            table.update(live[op[1] % len(live)], {"a": op[2], "f": op[3]}, tid=tid)
        elif kind == "del" and live:
            table.delete(live[op[1] % len(live)], tid=tid)
        elif kind == "merge":
            merge_table(table, snapshot=tid)
        elif kind == "demote":
            for group in table.groups():
                if group.main.row_count:
                    demote_partition(table.name, group.main, cold_dir)
    return tid


years = st.sampled_from([2012, 2013, 2014, 2015])
ints = st.one_of(st.none(), st.integers(-3, 3))
texts = st.one_of(st.none(), st.sampled_from(["", "a", "b", "zz"]))
floats = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.5, -2.25, 7.0]))
operation = st.one_of(
    st.tuples(st.just("ins"), years, ints, texts, floats),
    st.tuples(st.just("upd"), st.integers(0, 50), ints, floats),
    st.tuples(st.just("del"), st.integers(0, 50)),
    st.tuples(st.just("merge")),
    st.tuples(st.just("demote")),
)

NULLS = [("ins", 2013, None, None, None), ("ins", 2013, 1, "a", 1.5)]
INVALIDATED_MAIN_AND_DELTA = [
    ("ins", 2013, 1, "a", 1.5),
    ("ins", 2013, 2, "b", -2.25),
    ("ins", 2013, 3, "zz", 7.0),
    ("merge",),
    ("del", 0),
    ("ins", 2013, -1, "", 0.0),
    ("ins", 2013, -2, "", 0.0),
    ("del", 3),
]
HOT_AND_COLD = [
    ("ins", 2012, 1, "a", 1.5),
    ("ins", 2015, 2, "b", 1.5),
    ("merge",),
    ("upd", 0, 3, -0.0),
    ("ins", 2013, None, "zz", 0.0),
    ("ins", 2014, 3, None, None),
]
DEMOTED_COLD_MAIN = [
    ("ins", 2012, 1, "a", 1.5),
    ("ins", 2013, 2, "b", 7.0),
    ("ins", 2015, 3, "zz", None),
    ("merge",),
    ("demote",),
    ("upd", 0, -3, 0.0),
    ("del", 1),
    ("ins", 2012, 2, "b", -0.0),
]
# Value 3 and text "zz" live only in the row that is deleted before the
# merge: they must vanish from the new dictionary (and its min/max).
DROPPED_ONLY_VALUE = [
    ("ins", 2013, 1, "a", 1.5),
    ("ins", 2013, 3, "zz", 7.0),
    ("merge",),
    ("ins", 2013, 2, "b", None),
    ("del", 1),
]
# The main holds 0.0, the delta -0.0: the earliest partition's object wins.
SIGNED_ZERO = [("ins", 2013, 1, "a", 0.0), ("merge",), ("ins", 2013, 1, "a", -0.0)]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    aged=st.booleans(),
    separate_update_delta=st.booleans(),
    keep_history=st.booleans(),
    ops=st.lists(operation, max_size=30),
    late=st.integers(0, 2),
)
@example(aged=False, separate_update_delta=False, keep_history=False, ops=NULLS, late=0)
@example(
    aged=False,
    separate_update_delta=False,
    keep_history=False,
    ops=INVALIDATED_MAIN_AND_DELTA,
    late=0,
)
@example(
    aged=False,
    separate_update_delta=False,
    keep_history=True,
    ops=INVALIDATED_MAIN_AND_DELTA,
    late=0,
)
@example(aged=True, separate_update_delta=False, keep_history=False, ops=HOT_AND_COLD, late=0)
@example(aged=False, separate_update_delta=True, keep_history=False, ops=HOT_AND_COLD, late=0)
@example(aged=True, separate_update_delta=True, keep_history=False, ops=HOT_AND_COLD, late=1)
@example(
    aged=True, separate_update_delta=True, keep_history=False, ops=DEMOTED_COLD_MAIN, late=0
)
@example(aged=False, separate_update_delta=False, keep_history=False, ops=[], late=0)
@example(
    aged=True,
    separate_update_delta=False,
    keep_history=False,
    ops=[("ins", 2015, 1, "a", 1.5)],
    late=0,
)
@example(
    aged=False, separate_update_delta=False, keep_history=False, ops=DROPPED_ONLY_VALUE, late=0
)
@example(aged=False, separate_update_delta=False, keep_history=False, ops=SIGNED_ZERO, late=0)
def test_code_space_merge_matches_rowwise_oracle(
    aged, separate_update_delta, keep_history, ops, late
):
    table = make_table(aged, separate_update_delta)
    with tempfile.TemporaryDirectory() as cold_dir:
        last_tid = run_history(table, ops, cold_dir)
        max_cts = max(
            [int(p.cts_array().max()) for p in table.partitions() if p.row_count] or [0]
        )
        # A snapshot between the newest row and the newest stamp leaves
        # invalidations after the snapshot: those rows must stay.
        snapshot = min(max_cts + late, last_tid)
        for group in table.groups():
            assert_same_build(table, group, snapshot, keep_history)


def test_dropped_only_value_leaves_dictionary_range():
    table = make_table(aged=False, separate_update_delta=False)
    run_history(table, DROPPED_ONLY_VALUE, cold_dir=None)
    main, _, moved, dropped = _build_group(
        table, table.group("default"), snapshot=5, keep_history=False
    )
    assert (moved, dropped) == (1, 1)
    assert main.column("a").dictionary.values() == [1, 2]
    assert main.max_value("a") == 2
    assert main.column("s").dictionary.values() == ["a", "b"]
    assert main.column("f").codes().tolist() == [0, -1]


def test_demoted_cold_main_merges_from_mapped_files():
    table = make_table(aged=True, separate_update_delta=False)
    with tempfile.TemporaryDirectory() as cold_dir:
        tid = run_history(table, DEMOTED_COLD_MAIN[:5], cold_dir)
        cold = table.group("cold")
        assert cold.main.storage_tier == "mapped"
        table.insert({"id": 10, "year": 2012, "a": 9, "s": "b", "f": None}, tid=tid + 1)
        assert_same_build(table, cold, tid + 1, keep_history=False)
        merge_table(table, snapshot=tid + 1)
        assert cold.main.storage_tier == "resident"
        assert table.get_row(10)["a"] == 9


def test_future_row_message_names_first_future_stamp():
    table = make_table(aged=False, separate_update_delta=False)
    table.insert({"id": 1, "year": 2013}, tid=3)
    table.insert({"id": 2, "year": 2013}, tid=5)
    group = table.group("default")
    messages = []
    for build in (build_group_rowwise, _build_group):
        try:
            build(table, group, 2, False)
        except StorageError as exc:
            messages.append(str(exc))
    assert messages == [
        "row created by future transaction 3 found during merge at snapshot 2"
    ] * 2
