"""Database lifecycle: close() tears everything down, no thread leaks."""

import threading

import pytest

from repro import Database

from .conftest import HEADER_ITEM_SQL, load_erp, make_erp_db


def live_thread_count() -> int:
    return sum(1 for t in threading.enumerate() if t.is_alive())


class TestClose:
    def test_close_is_idempotent(self):
        db = make_erp_db()
        db.close()
        db.close()

    def test_context_manager_closes(self):
        with make_erp_db() as db:
            load_erp(db, n_headers=2, merge=True)
            assert db.query(HEADER_ITEM_SQL).rows
        # An in-memory database keeps answering after close().
        assert db.query(HEADER_ITEM_SQL).rows

    def test_no_thread_leak_across_open_close_cycles(self):
        """Opening, querying and closing databases repeatedly must not
        accumulate threads: queries run on the calling thread."""
        baseline = live_thread_count()
        for _ in range(5):
            db = make_erp_db()
            load_erp(db, n_headers=3, merge=True)
            load_erp(db, n_headers=1, start_hid=50, merge=False)
            assert db.query(HEADER_ITEM_SQL).rows  # compensation subjoins ran
            assert live_thread_count() <= baseline
            db.close()
        assert live_thread_count() <= baseline + 1  # tolerate unrelated noise

    def test_no_thread_leak_for_durable_databases(self, tmp_path):
        baseline = live_thread_count()
        for i in range(3):
            db = Database.open(tmp_path / "db")
            db.close()
        assert live_thread_count() <= baseline + 1

    def test_queries_after_close_still_answer(self):
        db = make_erp_db()
        load_erp(db, n_headers=4, merge=True)
        before = db.query(HEADER_ITEM_SQL).rows
        db.close()
        assert db.query(HEADER_ITEM_SQL).rows == before
