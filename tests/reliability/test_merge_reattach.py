"""Merge, demote, kill -9, reopen: the cold mains come back memory-mapped.

Recovery restores each main from the checkpoint's decoded rows with
``Partition.build_main``, then ``reattach_partition`` CRC-matches the cold
files against that rebuilt main.  The files were written from a main built
by the code-space delta merge, so the two constructions must agree bit for bit;
if they did not, recovery would silently discard the cold files and keep
the mains resident.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import repro
from repro import Database, ExecutionStrategy
from repro.storage import coldstore

CHILD = r"""
import os, signal, sys
from repro import Database
from repro.storage import threshold_aging

db = Database.open(sys.argv[1])
db.create_table(
    "header", [("hid", "INT"), ("year", "INT"), ("note", "TEXT")],
    primary_key="hid", aging_rule=threshold_aging("year", 2014),
)
db.create_table(
    "item", [("iid", "INT"), ("hid", "INT"), ("year", "INT"), ("price", "FLOAT")],
    primary_key="iid", aging_rule=threshold_aging("year", 2014),
)
db.add_matching_dependency("header", "hid", "item", "hid")
db.declare_consistent_aging("header", "item")
for hid in range(12):
    year = 2011 + hid % 5
    db.insert_business_object(
        "header", {"hid": hid, "year": year, "note": None if hid % 3 else f"n{hid}"},
        "item", [{"iid": hid * 10 + k, "hid": hid, "year": year, "price": k - 0.5}
                 for k in range(3)],
    )
db.merge()
# Leave invalidated rows, a value only they reference, and cold updates
# for the second merge to drop and fold in.
db.delete("item", 0)
db.update("header", 5, {"note": None})
db.update("item", 11, {"price": -0.0})
db.merge()
assert len(db.age_out()) == 2
os.kill(os.getpid(), signal.SIGKILL)
"""

SPAN_SQL = (
    "SELECT h.year AS year, SUM(i.price) AS total, COUNT(*) AS n "
    "FROM header h, item i WHERE h.hid = i.hid GROUP BY h.year"
)


def test_demoted_merge_output_reattaches_after_kill(tmp_path, monkeypatch):
    path = tmp_path / "db"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(path)], env=env, timeout=120, capture_output=True
    )
    assert child.returncode == -signal.SIGKILL, child.stderr.decode()

    attached = []
    reattach = coldstore.reattach_partition

    def recording(table_name, partition, directory):
        result = reattach(table_name, partition, directory)
        attached.append((table_name, partition.name, result))
        return result

    monkeypatch.setattr(coldstore, "reattach_partition", recording)
    db = Database.open(path)
    assert sorted(attached) == [("header", "cold_main", True), ("item", "cold_main", True)]
    for name in ("header", "item"):
        assert db.table(name).group("cold").main.storage_tier == "mapped"
    assert db.table("item").get_row(0) is None
    assert db.table("item").get_row(11)["price"] == 0.0
    assert db.table("header").get_row(5)["note"] is None
    uncached = db.query(SPAN_SQL, strategy=ExecutionStrategy.UNCACHED)
    assert sum(row[2] for row in uncached.rows) == 35
    assert db.query(SPAN_SQL).rows == uncached.rows
    db.close()
