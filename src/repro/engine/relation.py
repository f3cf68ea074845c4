"""Relations: schema + columnar row storage + stable row identifiers.

A :class:`Relation` is what flows from storage into the executor and the
differentiation framework. It is a **columnar block**: a list of parallel
per-column value arrays plus a ``row_ids`` array carrying the stable
per-row identifiers that incremental view maintenance threads through
every operator (section 5.5: "Incremental DTs define a unique ID for every
row in the query result, and store those IDs alongside the data").

Row view
--------

There is one layout. The row-tuple constructor
``Relation(schema, rows, row_ids)`` and :meth:`Relation.from_pairs` are
builders (tests, benchmarks, operators whose output is produced row by
row): each transposes its rows into columns once. ``rows``, ``pairs()``
and iteration are uncached transposes for the consumers that need row
shape — query results, the per-group aggregate loop, sort keys and the
join residual — which read them at most once per relation. Operators
that keep their input rows build output columns by gathering positions
(:meth:`Relation.gather`) instead.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Protocol, Sequence

from repro.engine.schema import Schema


class Relation:
    """An in-memory bag of rows with parallel row ids, stored column-major.

    ``columns[i][j]`` is column ``i`` of row ``j``; ``row_ids[j]`` is row
    ``j``'s id. Both are shared by reference between relations (a scan
    hands storage's arrays up unchanged), so callers treat them as
    read-only.
    """

    __slots__ = ("schema", "row_ids", "columns")

    def __init__(self, schema: Schema, rows: Optional[Sequence] = None,
                 row_ids: Optional[list] = None):
        rows = rows if rows is not None else []
        if row_ids and len(row_ids) != len(rows):
            raise ValueError("row_ids must parallel rows")
        if not row_ids:
            # Positional fallback ids; storage always provides real ids.
            row_ids = [f"pos:{index}" for index in range(len(rows))]
        self.schema = schema
        self.row_ids: list[str] = row_ids
        self.columns: list = ([list(column) for column in zip(*rows)]
                              if rows else [[] for __ in schema])

    @staticmethod
    def from_columns(schema: Schema, columns: Sequence[Sequence],
                     row_ids: Optional[list] = None) -> "Relation":
        """Build a relation directly from parallel column arrays.

        ``columns`` is adopted by reference (no copy); every column must
        have the same length, equal to ``len(row_ids)``.
        """
        relation = Relation.__new__(Relation)
        relation.schema = schema
        relation.columns = list(columns)
        if not columns:
            count = len(row_ids or ())  # zero-width: the ids carry the count
        else:
            count = len(columns[0])
        if not row_ids:
            row_ids = [f"pos:{index}" for index in range(count)]
        elif len(row_ids) != count:
            raise ValueError("row_ids must parallel columns")
        relation.row_ids = row_ids
        return relation

    @staticmethod
    def from_pairs(schema: Schema,
                   pairs: Iterable[tuple[str, tuple]]) -> "Relation":
        pairs = list(pairs)
        return Relation(schema, [row for __, row in pairs],
                        [row_id for row_id, __ in pairs])

    # -- row views (uncached transposes) ---------------------------------------

    @property
    def rows(self) -> list[tuple]:
        """Row tuples: one transpose of the columns per access."""
        if not self.columns:
            return [()] * len(self.row_ids)
        return list(zip(*self.columns))

    def pairs(self) -> Iterator[tuple[str, tuple]]:
        """Iterate ``(row_id, row)`` pairs."""
        return zip(self.row_ids, self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.row_ids)

    # -- column kernels ---------------------------------------------------------

    def gather(self, indices: Sequence[int],
               schema: Optional[Schema] = None) -> "Relation":
        """The rows at ``indices``, in that order, with their ids (one
        gather per column); ``schema`` relabels the result."""
        return Relation.from_columns(
            schema if schema is not None else self.schema,
            [list(map(column.__getitem__, indices))
             for column in self.columns],
            list(map(self.row_ids.__getitem__, indices)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({len(self)} rows x {len(self.columns)} columns)"


class SnapshotResolver(Protocol):
    """Resolves table names to relations at one fixed point in time.

    Implementations: a transaction's snapshot view
    (:class:`repro.txn.manager.Transaction`), or a plain dict in tests. The
    executor never touches the catalog directly — this is what lets a
    dynamic-table refresh evaluate its defining query "as of" its data
    timestamp (delayed view semantics).
    """

    def scan(self, table: str) -> Relation:
        """The contents of ``table`` in this snapshot."""
        ...


class DictResolver:
    """A SnapshotResolver over ``{name: Relation}`` (for tests)."""

    def __init__(self, relations: dict[str, Relation]):
        self._relations = relations

    def scan(self, table: str) -> Relation:
        return self._relations[table]
