"""Matching-dependency enforcement at insert time (Section 5, Section 6.3).

Every insert passes through the enforcer before it reaches the table:

* if the target table is the *parent* of an MD, the row's tid column is
  stamped with the inserting transaction's id (larger than any existing
  value, since tids are monotonic);
* if it is the *child* of an MD and the foreign key is non-NULL, the parent
  row is looked up through the primary-key index and its tid value copied
  into the child row.  This is the per-insert lookup whose overhead Section
  6.3 measures; it doubles as the referential-integrity check.

The enforcer keeps counters so the insert-overhead benchmark can report the
number of lookups separately from wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import IntegrityError
from ..storage.catalog import Catalog
from .matching_dependency import MatchingDependency, validate_md


@dataclass
class EnforcementStats:
    """Counters over the enforcer's lifetime."""

    parent_stamps: int = 0
    child_lookups: int = 0
    lookups_failed: int = 0


class MDEnforcer:
    """Stamps and copies matching-dependency tid columns on insert."""

    def __init__(self, catalog: Catalog, enforce_referential_integrity: bool = True):
        self._catalog = catalog
        self._enforce_ri = enforce_referential_integrity
        self._as_parent: Dict[str, List[MatchingDependency]] = {}
        self._as_child: Dict[str, List[MatchingDependency]] = {}
        self.stats = EnforcementStats()

    # ------------------------------------------------------------------
    def register(self, md: MatchingDependency) -> None:
        """Validate and activate an MD for subsequent inserts."""
        validate_md(md, self._catalog)
        self._as_parent.setdefault(md.parent_table, []).append(md)
        self._as_child.setdefault(md.child_table, []).append(md)

    def dependencies(self) -> List[MatchingDependency]:
        """All registered MDs (each exactly once)."""
        seen = []
        for mds in self._as_parent.values():
            seen.extend(mds)
        return seen

    def dependencies_of_child(self, table_name: str) -> List[MatchingDependency]:
        """The MDs in which ``table_name`` is the child side."""
        return list(self._as_child.get(table_name, []))

    # ------------------------------------------------------------------
    def stamp(self, table_name: str, row: Dict[str, object], tid: int) -> Dict[str, object]:
        """Return a copy of ``row`` with all MD tid columns filled.

        Parent-side columns get the inserting transaction's id.  Child-side
        columns get the matching parent tuple's tid; a missing parent raises
        ``IntegrityError`` when referential-integrity enforcement is on,
        otherwise the tid stays NULL (and the row can never join, since its
        foreign key has no matching parent either).
        """
        stamped = dict(row)
        for md in self._as_parent.get(table_name, []):
            stamped[md.tid_column] = tid
            self.stats.parent_stamps += 1
        for md in self._as_child.get(table_name, []):
            fk_value = stamped.get(md.child_fk)
            if fk_value is None:
                stamped.setdefault(md.tid_column, None)
                continue
            parent_tid = self._lookup_parent_tid(md, fk_value)
            stamped[md.tid_column] = parent_tid
        return stamped

    def _lookup_parent_tid(self, md: MatchingDependency, fk_value) -> object:
        self.stats.child_lookups += 1
        parent = self._catalog.table(md.parent_table)
        locator = parent.pk_lookup(fk_value)
        if locator is None:
            self.stats.lookups_failed += 1
            if self._enforce_ri:
                raise IntegrityError(
                    f"insert into {md.child_table!r} references missing "
                    f"{md.parent_table!r} row {fk_value!r} "
                    f"(via {md.child_fk!r})"
                )
            return None
        # One probe serves both the RI check and the tid copy (Section 6.3):
        # decode only the tid value, never the whole parent row.
        partition = parent.partition(locator.partition)
        return partition.column(md.tid_column).value_at(locator.row)

    def __repr__(self) -> str:
        return (
            f"MDEnforcer(mds={len(self.dependencies())}, "
            f"lookups={self.stats.child_lookups})"
        )
