"""The ledger's three workloads.

Each workload derives everything from ``--seed``: the generator
configuration, the transaction driver's seed, and a fixed list of
operations built up front by :meth:`operations`.  The engine only ever
sees the generated inputs.  ``--seconds`` sizes that list through a
nominal rate per workload, so two commits compared with the same
arguments execute exactly the same operations.

One client drives each workload in a closed loop: the next operation is
issued when the previous one has returned.

Operation tuples (the first element is the latency class):

* ``("query", statement_index, checked)``
* ``("txn", kind, payload)`` with ``kind`` one of ``new_order``,
  ``payment``, ``delivery`` (CH) or ``object``, ``late_items`` (ERP)
* ``("merge",)``: a delta merge (plus checkpoint and ``age_out()`` on the
  durable ERP database)
* ``("refresh",)``: ``Database.refresh_cache()``, the idle hook
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import Database
from repro.governor import GovernorConfig
from repro.storage.aging import threshold_aging
from repro.workloads import (
    CH_QUERIES,
    ChBenchmark,
    ChConfig,
    ChTransactionDriver,
    ErpConfig,
    ErpWorkload,
    iso_date,
)
from repro.workloads.chbench import ITEM_CATEGORIES, NATIONS, REGIONS, STATES
from repro.workloads.erp import DOC_TYPES

MB = 1024 * 1024


def derived_rng(seed: int, purpose: str) -> random.Random:
    """An independent generator per purpose, fixed by the run seed."""
    return random.Random(f"ledger:{seed}:{purpose}")


def derived_seed(seed: int, purpose: str) -> int:
    return derived_rng(seed, purpose).randrange(2**31)


@dataclass
class Session:
    """One set-up database plus the handles a workload drives it with."""

    db: Database
    workdir: Optional[Path] = None
    driver: Optional[ChTransactionDriver] = None
    #: Rows inserted by set-up and by the timed window, per table.
    setup_rows: Dict[str, int] = field(default_factory=dict)
    rows_inserted: Dict[str, int] = field(default_factory=dict)
    #: Bytes of checkpoint and cold-store files written in the window,
    #: per directory (``checkpoints``, ``cold``).
    file_bytes_written: Dict[str, int] = field(default_factory=dict)
    _seen_files: Dict[str, Tuple[int, int]] = field(default_factory=dict)


def _replace_once(text: str, old: str, new: str) -> str:
    if text.count(old) != 1:
        raise ValueError(f"statement template lost its {old!r} literal")
    return text.replace(old, new)


class Workload:
    """Interface shared by the three workloads (see the module docstring)."""

    name = ""
    why = ""
    statements: List[str] = []

    def __init__(self, seed: int, seconds: float, tiny: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny

    def _count(self, per_second: float, minimum: int) -> int:
        return max(minimum, int(round(per_second * self.seconds)))

    def operations(self) -> List[tuple]:
        raise NotImplementedError

    def load(self, workdir: Path) -> Session:
        raise NotImplementedError

    def warm_up(self, session: Session) -> None:
        """Run every statement twice: entries, plans and memos exist
        before the first timed operation."""
        for sql in self.statements:
            session.db.query(sql)
            session.db.query(sql)

    def execute(self, session: Session, op: tuple):
        """Run one operation; returns the QueryResult of a query and the
        decision list of a refresh."""
        kind = op[0]
        db = session.db
        if kind == "query":
            return db.query(self.statements[op[1]])
        if kind == "merge":
            db.merge()
            return None
        if kind == "refresh":
            return db.refresh_cache()
        return self._transaction(session, op[1], op[2])

    def _transaction(self, session: Session, kind: str, payload) -> None:
        raise NotImplementedError

    def after_op(self, session: Session, op: tuple) -> None:
        """Untimed bookkeeping after an operation."""

    def post_window_ops(self) -> List[tuple]:
        """Operations run after the window and its checks, each timed
        into its latency class (not into ``ops_per_s``)."""
        return []

    def close(self, session: Session) -> None:
        session.db.close()
        if session.workdir is not None:
            shutil.rmtree(session.workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# CH-benCHmark
# ----------------------------------------------------------------------
def ch_config(seed: int, tiny: bool) -> ChConfig:
    if tiny:
        return ChConfig(
            warehouses=1, districts_per_warehouse=2, customers_per_district=10,
            orders_per_district=30, orderlines_per_order=3, items=30,
            suppliers=5, seed=derived_seed(seed, "ch-data"),
        )
    # 2 warehouses x 4 districts, 3,200 orders, 25,600 orderlines.
    return ChConfig(
        warehouses=2, districts_per_warehouse=4, customers_per_district=40,
        orders_per_district=400, orderlines_per_order=8, items=300,
        suppliers=20, seed=derived_seed(seed, "ch-data"),
    )


class _ChWorkload(Workload):
    governor_budget_mb: Optional[float] = None

    def load(self, workdir: Path) -> Session:
        db = Database(
            governor=GovernorConfig(memory_budget_mb=self.governor_budget_mb)
        )
        bench = ChBenchmark(db, ch_config(self.seed, self.tiny))
        bench.load()
        driver = ChTransactionDriver(bench, seed=derived_seed(self.seed, "ch-txn"))
        return Session(db=db, driver=driver)

    def _transaction(self, session: Session, kind: str, payload) -> None:
        driver = session.driver
        if kind == "new_order":
            driver.new_order()
        elif kind == "payment":
            driver.payment()
        elif driver.delivery() is None:
            driver.new_order()  # nothing left to deliver, as the TPC-C mix does


class ChReadHot(_ChWorkload):
    name = "ch_read_hot"
    why = ("six fixed statements answered from cache entries, with a trickle of "
           "inserts: plan lookup, cache pipeline, delta-memo advance, finalize/sort")
    statements = [CH_QUERIES[name] for name in ("Q3", "Q5", "Q7", "Q8", "Q9", "Q10")]
    #: Every query is checked against the uncached evaluation, which costs
    #: 15-110 ms a statement at full scale; this rate keeps that affordable.
    QUERIES_PER_SECOND = 24
    QUERIES_PER_INSERT = 8

    def operations(self) -> List[tuple]:
        n_queries = self._count(self.QUERIES_PER_SECOND, 12)
        phase = derived_rng(self.seed, "ops").randrange(len(self.statements))
        ops: List[tuple] = []
        for i in range(n_queries):
            ops.append(("query", (phase + i) % len(self.statements), True))
            if i % self.QUERIES_PER_INSERT == self.QUERIES_PER_INSERT - 1:
                ops.append(("txn", "new_order", None))
        return ops

    def post_window_ops(self) -> List[tuple]:
        """Five merges, each folding the trickle inserted before it: the
        window itself never merges, but every workload reports
        ``merge_ms_p50``.  The trickle's inserts add to the few
        transactions the window holds."""
        trickle = [("txn", "new_order", None)] * self.QUERIES_PER_INSERT
        return [("merge",)] + (trickle + [("merge",)]) * 4


def churn_statements() -> List[str]:
    """The 29 parameterised statements of ``ch_htap_churn``."""
    q = CH_QUERIES
    out = [_replace_once(q["Q3"], "'CA'", f"'{s}'") for s in STATES]
    out += [_replace_once(q["Q5"], "'EUROPE'", f"'{r}'") for r in REGIONS]
    out += [_replace_once(q["Q7"], "'GERMANY'", f"'{n}'") for n, _ in NATIONS]
    out += [
        _replace_once(_replace_once(q["Q8"], "'EUROPE'", f"'{r}'"),
                      "'premium'", f"'{c}'")
        for r in REGIONS for c in ITEM_CATEGORIES
    ]
    out += [_replace_once(q["Q9"], "'premium'", f"'{c}'") for c in ITEM_CATEGORIES]
    out += [_replace_once(q["Q10"], ">= 2013", f">= {y}") for y in (2012, 2013, 2014)]
    return out


class ChHtapChurn(_ChWorkload):
    name = "ch_htap_churn"
    why = ("TPC-C updates and deletes invalidate mains while skewed queries run: "
           "main and full delta compensation, merges, refresh and shedding")
    statements = churn_statements()
    TXNS_PER_SECOND = 60
    TXNS_PER_QUERY = 2
    MERGE_EVERY_TXNS = 100
    REFRESH_EVERY_OPS = 100
    CHECK_FRACTION = 0.1
    ZIPF_EXPONENT = 1.0
    #: Far below the ~4 MB this workload tracks without a budget, so the
    #: governor sheds recycled subjoins, memos and entries that later
    #: queries rebuild.
    governor_budget_mb = 0.35

    def operations(self) -> List[tuple]:
        rng = derived_rng(self.seed, "ops")
        n_txns = self._count(self.TXNS_PER_SECOND, 20)
        merge_every = self.MERGE_EVERY_TXNS if not self.tiny else 10
        refresh_every = self.REFRESH_EVERY_OPS if not self.tiny else 10
        # The popularity ranking is part of the workload, the same for
        # every seed; the seed draws the sequence.
        ranks = list(range(len(self.statements)))
        random.Random("ch_htap_churn:ranking").shuffle(ranks)
        weights = [1.0 / (rank + 1) ** self.ZIPF_EXPONENT for rank in ranks]
        indexes = list(range(len(self.statements)))
        ops: List[tuple] = []
        for t in range(1, n_txns + 1):
            draw = rng.random()
            kind = "new_order" if draw < 0.45 else "payment" if draw < 0.88 else "delivery"
            ops.append(("txn", kind, None))
            if t % self.TXNS_PER_QUERY == 0:
                statement = rng.choices(indexes, weights=weights)[0]
                ops.append(("query", statement, rng.random() < self.CHECK_FRACTION))
            if t % merge_every == 0:
                ops.append(("merge",))
            if len(ops) % refresh_every == 0:
                ops.append(("refresh",))
        return ops


# ----------------------------------------------------------------------
# ERP, durable and hot/cold aged
# ----------------------------------------------------------------------
class ErpDurable(Workload):
    name = "erp_durable"
    why = ("durable writes: MD enforcement, WAL and fsync per commit, merge with "
           "checkpoint, cold-tier demotion and recovery")
    HOT_YEAR = 2014
    LATE_ITEM_RATE = 0.05
    OBJECTS_PER_QUERY = 4
    OBJECTS_PER_SECOND = 180
    MERGE_EVERY_OBJECTS = 300
    statements = [
        ErpWorkload.profit_and_loss_sql(2013, "ENG"),
        ErpWorkload.profit_and_loss_sql(2014, "ENG"),
        ErpWorkload.profit_and_loss_sql(2013, "GER"),
        ErpWorkload.profit_and_loss_sql(2014, "FRA"),
        ErpWorkload.doc_type_sql(2013),
        ErpWorkload.doc_type_sql(2014),
        ErpWorkload.header_item_sql(2013),
        ErpWorkload.header_item_sql(2014),
    ]

    @property
    def setup_objects(self) -> int:
        return 60 if self.tiny else 2000

    def _config(self) -> ErpConfig:
        return ErpConfig(
            seed=derived_seed(self.seed, "erp-data"),
            late_item_rate=self.LATE_ITEM_RATE,
        )

    def operations(self) -> List[tuple]:
        rng = derived_rng(self.seed, "ops")
        config = self._config()
        n_objects = self._count(self.OBJECTS_PER_SECOND, 12)
        merge_every = self.MERGE_EVERY_OBJECTS if not self.tiny else 5
        next_header = self.setup_objects + 1
        next_item = self.setup_objects * config.items_per_header + 1
        late: List[dict] = []
        ops: List[tuple] = []
        statement = rng.randrange(len(self.statements))
        for n in range(1, n_objects + 1):
            year = self.HOT_YEAR
            header = {
                "HeaderID": next_header,
                "FiscalYear": year,
                "DocType": rng.choice(DOC_TYPES),
                "PostingDate": iso_date(rng, year),
            }
            items = []
            for _ in range(config.items_per_header):
                item = {
                    "ItemID": next_item,
                    "HeaderID": next_header,
                    "CategoryID": rng.randrange(config.n_categories),
                    "FiscalYear": year,
                    "Amount": rng.randint(1, 20),
                    "Price": round(rng.uniform(*config.price_range), 2),
                }
                next_item += 1
                (late if rng.random() < self.LATE_ITEM_RATE else items).append(item)
            next_header += 1
            ops.append(("txn", "object", (header, tuple(items))))
            if n % self.OBJECTS_PER_QUERY == 0:
                if late:
                    # Items added to their header in a later transaction:
                    # they break the MD's temporal locality on purpose.
                    ops.append(("txn", "late_items", tuple(late)))
                    late = []
                ops.append(("query", statement, True))
                statement = (statement + 1) % len(self.statements)
            if n % merge_every == 0 and n < n_objects:
                ops.append(("merge",))
        if late:
            ops.append(("txn", "late_items", tuple(late)))
        return ops

    def load(self, workdir: Path) -> Session:
        workdir.mkdir(parents=True, exist_ok=True)
        db = Database(path=workdir / "db", governor=GovernorConfig())
        erp = ErpWorkload(
            db,
            self._config(),
            header_aging=threshold_aging("FiscalYear", self.HOT_YEAR),
            item_aging=threshold_aging("FiscalYear", self.HOT_YEAR),
        )
        headers, items = erp.insert_objects(self.setup_objects)
        db.merge()
        db.age_out()
        session = Session(db=db, workdir=workdir, setup_rows={
            "Header": headers, "Item": items, "ProductCategory": erp.config.n_categories,
        })
        self._scan_files(session, count=False)
        return session

    def reopen(self, session: Session) -> None:
        """Close the database and open it again from its files."""
        path = session.db.path
        session.db.close()
        session.db = Database.open(path, governor=GovernorConfig())

    def execute(self, session: Session, op: tuple):
        if op[0] == "merge":
            session.db.merge()  # writes a checkpoint
            session.db.age_out()
            return None
        return super().execute(session, op)

    def _transaction(self, session: Session, kind: str, payload) -> None:
        db = session.db
        inserted = session.rows_inserted
        if kind == "object":
            header, items = payload
            db.insert_business_object("Header", dict(header), "Item",
                                      [dict(item) for item in items])
            inserted["Header"] = inserted.get("Header", 0) + 1
            inserted["Item"] = inserted.get("Item", 0) + len(items)
        else:
            db.insert_many("Item", [dict(item) for item in payload])
            inserted["Item"] = inserted.get("Item", 0) + len(payload)

    def after_op(self, session: Session, op: tuple) -> None:
        if op[0] == "merge":
            self._scan_files(session, count=True)

    def _scan_files(self, session: Session, count: bool) -> None:
        """Count checkpoint and cold-store files created or rewritten since
        the last scan, per directory (the WAL is counted from its own byte
        counter)."""
        root = session.db.path
        for directory in ("checkpoints", "cold"):
            for dirpath, _dirs, files in os.walk(root / directory):
                for filename in files:
                    path = os.path.join(dirpath, filename)
                    stat = os.stat(path)
                    stamp = (stat.st_mtime_ns, stat.st_size)
                    if session._seen_files.get(path) != stamp:
                        session._seen_files[path] = stamp
                        if count:
                            written = session.file_bytes_written
                            written[directory] = written.get(directory, 0) + stat.st_size


WORKLOADS = {cls.name: cls for cls in (ChReadHot, ChHtapChurn, ErpDurable)}
