"""Row-at-a-time reference join kernel: the parity oracle.

The engine joins and aggregates in dictionary-code space.  This module keeps
the straightforward decoded-value row loop those kernels must reproduce bit
for bit — same joined index arrays, same result rows, same row order, same
Python value types.  :func:`rowloop_kernel` swaps it into the executor end
to end, so a test or benchmark can run one query on both and compare.

Importing this module must stay cheap and free of test-only dependencies
(no ``hypothesis``): the join-kernel benchmark imports it in a job that
installs only numpy and pytest.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.query import executor, operators
from repro.storage.partition import Partition


class RowLoopHashTable:
    """Reference row-at-a-time build side over decoded tuple keys.

    Same contract as the engine's code-space table: rows with a NULL in any
    key column are dropped, the table is falsy when no row survives, and
    :meth:`probe` returns ``(probe positions, build rows)`` ordered by
    ascending probe position with build-row order within a key.
    """

    __slots__ = ("partition", "key_columns", "table")

    def __init__(self, partition: Partition, rows, key_columns: Sequence[str]):
        self.partition = partition
        self.key_columns = tuple(key_columns)
        rows = np.asarray(rows, dtype=np.int64)
        arrays = [partition.column(col).decode_rows(rows) for col in key_columns]
        table: Dict[Tuple, List[int]] = {}
        for i in range(len(rows)):
            key = tuple(arr[i] for arr in arrays)
            if any(part is None for part in key):
                continue
            table.setdefault(key, []).append(int(rows[i]))
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def __bool__(self) -> bool:
        return bool(self.table)

    def probe(self, current, probe_columns) -> Tuple[np.ndarray, np.ndarray]:
        """Row-at-a-time probe; same contract as the code-space kernel."""
        probe_arrays = [current.get(alias, col) for alias, col in probe_columns]
        n = current.row_count()
        keep_positions: List[int] = []
        matched_rows: List[int] = []
        table = self.table
        for i in range(n):
            key = tuple(arr[i] for arr in probe_arrays)
            if any(part is None for part in key):
                continue
            matches = table.get(key)
            if not matches:
                continue
            for row in matches:
                keep_positions.append(i)
                matched_rows.append(row)
        return (
            np.asarray(keep_positions, dtype=np.int64),
            np.asarray(matched_rows, dtype=np.int64),
        )

    def as_dict(self) -> Dict[Tuple, List[int]]:
        """Decoded-key rendering for diagnostics/tests: key tuple -> rows."""
        return {key: list(rows) for key, rows in self.table.items()}


@contextmanager
def rowloop_kernel():
    """Run the executor on the row-loop oracle inside the block.

    Hash tables are built as :class:`RowLoopHashTable`, and the vectorized
    aggregation threshold is lifted to infinity so ``aggregate_into`` always
    takes its row loop.  Both are restored on exit.

    Hash tables are memoized per ``execute`` call only, but the subjoin
    recycler keys carry no kernel: compare kernels on a fresh ``Database``
    each, or with the recycler off.
    """
    saved_build = executor.build_hash_table
    saved_threshold = operators._VECTORIZE_THRESHOLD
    executor.build_hash_table = RowLoopHashTable
    operators._VECTORIZE_THRESHOLD = math.inf
    try:
        yield
    finally:
        executor.build_hash_table = saved_build
        operators._VECTORIZE_THRESHOLD = saved_threshold
