"""Matching dependencies (Section 4.1 / Section 5).

A matching dependency (MD) between a parent table ``R`` and a child table
``S`` states (Definition 2, Equation 3/6):

    for all r in R, s in S:  r[A] = s[A]  =>  r[tid] = s[tid]

where ``A`` is the join attribute (``R``'s primary key matched by ``S``'s
foreign key) and ``tid`` is a temporal attribute: the auto-incremented
transaction id of the transaction that inserted ``r``, copied into ``s`` at
``s``'s insert time.  The MD itself is a hard constraint (it is enforced on
every insert); the *temporal locality* of enterprise objects — header and
items inserted in the same or nearby transactions — is the soft constraint
that makes the resulting tid ranges prunable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchemaError
from ..storage.catalog import Catalog


@dataclass(frozen=True)
class MatchingDependency:
    """Declaration of one MD between a parent and a child table.

    Attributes
    ----------
    parent_table / parent_key:
        ``R`` and its unique join attribute ``A`` (must be ``R``'s primary
        key, which is what makes the insert-time lookup single-valued).
    child_table / child_fk:
        ``S`` and its foreign-key attribute referencing ``R[A]``.
    tid_column:
        Name of the temporal column present on *both* tables, e.g.
        ``tid_header``.  On the parent it is stamped with the inserting
        transaction's id; on the child it is copied from the matching
        parent row.
    """

    parent_table: str
    parent_key: str
    child_table: str
    child_fk: str
    tid_column: str

    def __post_init__(self):
        if self.parent_table == self.child_table:
            raise SchemaError("self-referencing matching dependencies are not supported")

    def canonical(self) -> str:
        """Stable textual form of the MD declaration."""
        return (
            f"MD({self.parent_table}[{self.parent_key}] = "
            f"{self.child_table}[{self.child_fk}] => "
            f"{self.parent_table}[{self.tid_column}] = "
            f"{self.child_table}[{self.tid_column}])"
        )

    def covers_join(
        self,
        table_a: str,
        col_a: str,
        table_b: str,
        col_b: str,
    ) -> bool:
        """True if this MD covers the equi-join ``table_a.col_a = table_b.col_b``."""
        forward = (
            table_a == self.parent_table
            and col_a == self.parent_key
            and table_b == self.child_table
            and col_b == self.child_fk
        )
        backward = (
            table_b == self.parent_table
            and col_b == self.parent_key
            and table_a == self.child_table
            and col_a == self.child_fk
        )
        return forward or backward


def validate_md(md: MatchingDependency, catalog: Catalog) -> None:
    """Check that the MD's tables, keys, and tid columns exist.

    The tid column must exist on both sides (use ``install_md_columns`` to
    add them) and the parent key must be the parent's primary key so the
    enforcement lookup is unique (Section 5: "at most one matching tuple
    exists, e.g. R[A] is the primary key of R").
    """
    parent = catalog.table(md.parent_table)
    child = catalog.table(md.child_table)
    if parent.schema.primary_key != md.parent_key:
        raise SchemaError(
            f"MD parent key {md.parent_key!r} must be the primary key of "
            f"{md.parent_table!r} (which is {parent.schema.primary_key!r})"
        )
    if not child.schema.has_column(md.child_fk):
        raise SchemaError(
            f"MD child fk {md.child_fk!r} missing from {md.child_table!r}"
        )
    for table in (parent, child):
        if not table.schema.has_column(md.tid_column):
            raise SchemaError(
                f"tid column {md.tid_column!r} missing from {table.name!r}; "
                "declare it with storage.tid_column() or let the Database "
                "facade install it"
            )
