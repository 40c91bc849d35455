"""Database snapshots: save/load the full engine state to a directory.

An in-memory engine still needs a way to survive restarts; this module
persists a :class:`~repro.database.Database` as a self-describing directory:

* ``catalog.json`` — schemas (including MD tid columns), primary keys,
  table ids, layout flags, the registered matching dependencies and
  consistent-aging declarations, and the transaction high-water mark;
* one ``<table>.<partition>.jsonl`` file per partition, each line holding a
  row's values plus its MVCC create/invalidate stamps, so visibility —
  including retained history from ``merge(keep_history=True)`` — survives
  the round trip.

Aggregate cache entries are deliberately *not* persisted: they are a cache,
rebuilt on first use (and their visibility snapshots reference in-memory
partition objects).  Aging rules built from the library constructors
serialize with the catalog; arbitrary callable rules are code and must be
passed back to :func:`load_database`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Optional

from ..errors import StorageError
from .aging import aging_rule_from_spec, aging_rule_spec
from .partition import Partition
from .schema import Schema
from .table import Table

_FORMAT_VERSION = 1


def save_database(db, directory) -> Path:
    """Write a consistent snapshot of ``db`` into ``directory``.

    The directory is created if missing; existing snapshot files in it are
    overwritten.  Returns the directory path.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    catalog: Dict = {
        "format_version": _FORMAT_VERSION,
        "latest_tid": db.transactions.global_snapshot(),
        "tables": [],
        "matching_dependencies": [
            {
                "parent_table": md.parent_table,
                "parent_key": md.parent_key,
                "child_table": md.child_table,
                "child_fk": md.child_fk,
                "tid_column": md.tid_column,
            }
            for md in db.enforcer.dependencies()
        ],
        "consistent_agings": [
            {"left": decl.left_table, "right": decl.right_table}
            for decl in db.cache._agings
        ],
    }
    for name in db.catalog.table_names():
        table = db.table(name)
        catalog["tables"].append(
            {
                "name": name,
                "table_id": table.table_id,
                "aged": table.is_aged(),
                "aging_spec": aging_rule_spec(table.aging_rule)
                if table.is_aged()
                else None,
                "separate_update_delta": table.separate_update_delta,
                "primary_key": table.schema.primary_key,
                "columns": table.schema.to_spec(),
                "partitions": [p.name for p in table.partitions()],
            }
        )
        for partition in table.partitions():
            _save_partition(root, name, partition)
    (root / "catalog.json").write_text(json.dumps(catalog, indent=2))
    return root


def _save_partition(root: Path, table_name: str, partition: Partition) -> None:
    path = root / f"{table_name}.{partition.name}.jsonl"
    cts = partition.cts_array()
    dts = partition.dts_array()
    with path.open("w") as handle:
        for row, created, invalidated in zip(partition.decoded_rows(), cts, dts):
            record = {"row": row, "cts": int(created), "dts": int(invalidated)}
            handle.write(json.dumps(record) + "\n")


def load_database(
    directory,
    aging_rules: Optional[Dict[str, Callable]] = None,
    **database_kwargs,
):
    """Reconstruct a :class:`~repro.database.Database` from a snapshot.

    ``aging_rules`` must supply the aging rule callable for every table that
    was saved with hot/cold partitioning (rules are code and cannot be
    serialized).  Additional keyword arguments go to the ``Database``
    constructor (cache config, policies).
    """
    from ..database import Database

    root = Path(directory)
    catalog_path = root / "catalog.json"
    if not catalog_path.exists():
        raise StorageError(f"no snapshot at {root} (missing catalog.json)")
    catalog = json.loads(catalog_path.read_text())
    if catalog.get("format_version") != _FORMAT_VERSION:
        raise StorageError(
            f"unsupported snapshot format {catalog.get('format_version')!r}"
        )
    aging_rules = aging_rules or {}
    db = Database(**database_kwargs)
    for spec in catalog["tables"]:
        schema = Schema.from_spec(spec["columns"], spec["primary_key"])
        aging_rule = aging_rules.get(spec["name"])
        if aging_rule is None and spec["aged"]:
            # Serializable rules round-trip through the snapshot itself; an
            # explicitly passed rule still wins (callable rules are code).
            aging_rule = aging_rule_from_spec(spec.get("aging_spec"))
            if aging_rule is None:
                raise StorageError(
                    f"table {spec['name']!r} was saved with hot/cold "
                    "partitioning under a non-serializable rule; pass it "
                    "via aging_rules={...}"
                )
        table = db.catalog.create_table(
            spec["name"],
            schema,
            aging_rule=aging_rule,
            separate_update_delta=spec["separate_update_delta"],
        )
        table.table_id = spec["table_id"]
        for partition_name in spec["partitions"]:
            _load_partition(root, spec["name"], table, partition_name)
        table.rebuild_pk_index()
    for md_spec in catalog["matching_dependencies"]:
        db.add_matching_dependency(
            md_spec["parent_table"],
            md_spec["parent_key"],
            md_spec["child_table"],
            md_spec["child_fk"],
            tid_column_name=md_spec["tid_column"],
        )
    for aging_spec in catalog["consistent_agings"]:
        db.declare_consistent_aging(aging_spec["left"], aging_spec["right"])
    db.transactions.advance_to(catalog["latest_tid"])
    # New tables created after the restore must not reuse snapshot table ids.
    max_id = max((spec["table_id"] for spec in catalog["tables"]), default=0)
    db.catalog._next_table_id = max(db.catalog._next_table_id, max_id + 1)
    return db


def _load_partition(root: Path, table_name: str, table: Table, partition_name: str) -> None:
    path = root / f"{table_name}.{partition_name}.jsonl"
    if not path.exists():
        raise StorageError(f"snapshot is missing partition file {path.name}")
    rows, cts, dts = [], [], []
    with path.open() as handle:
        for line in handle:
            record = json.loads(line)
            rows.append(record["row"])
            cts.append(record["cts"])
            dts.append(record["dts"])
    table.restore_partition(partition_name, rows, cts, dts)
