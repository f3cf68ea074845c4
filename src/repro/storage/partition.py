"""Immutable micro-partitions with per-column zone maps.

Snowflake tables are stored as immutable micro-partitions; a table version
is a set of partitions, and every change is expressed as partitions added
and removed (copy-on-write). We reproduce that model because two behaviours
the paper discusses fall out of it naturally:

* **change queries** (the Streams substrate of [5], section 5.5): the
  changes between two versions are exactly the rows of the added
  partitions minus the rows of the removed partitions, with identical
  copied rows cancelling — including the *read amplification* effect of
  section 5.5.2 ("naively reading from added and removed partitions ...
  often causes read amplification"), which our consolidation eliminates;
* **data-equivalent operations** (section 5.5.2): background reclustering
  rewrites partitions without changing logical contents; versions flagged
  data-equivalent are skipped by the differ.

A partition stores its data **column-major** and only that way:
``row_ids`` is a tuple of stable identifiers and ``columns[i]`` is the
tuple of column ``i``'s values, parallel to it. This is the shape
Snowflake's micro-partition format presumes (column chunks within an
immutable file): scans hand whole column arrays to the vectorized
evaluators, DML rewrites gather surviving column slices
(:func:`gather_columns`), change queries transpose a partition's arrays
into a delta without keeping the row tuples, and zone maps are a single
min/max pass over an already-materialized column array. There is no row
view on a partition: nothing row-shaped stays pinned on the partitions
that old table versions keep alive.

Each partition is stamped at creation with per-column **zone maps**
(min/max plus a value-kind tag), mirroring Snowflake's per-micro-partition
metadata. Scans with pushed-down column bounds use them to skip partitions
wholesale; the pruning is conservative — a partition is only skipped when
*no* row in it could satisfy the bounds under exact SQL semantics
(including NULL comparisons evaluating to NULL, and mixed-type columns
never being pruned so runtime type errors still surface).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence

from repro.errors import InternalError


#: Global partition id allocator (ids only need to be unique per process).
_partition_ids = itertools.count(1)


@dataclass(frozen=True)
class ColumnStats:
    """Zone-map entry for one column of one partition.

    ``kind`` is ``"num"`` (all non-NULL values are int/float, no NaN),
    ``"str"`` (all non-NULL values are text), ``None`` (every value is
    NULL), or ``"other"`` (mixed or non-orderable values — never pruned).
    ``low``/``high`` are only meaningful for ``"num"`` and ``"str"``.
    """

    kind: Optional[str]
    low: object = None
    high: object = None
    has_null: bool = False


def _column_stats(values: Iterable[object]) -> ColumnStats:
    kind: Optional[str] = None
    low = high = None
    has_null = False
    other = False
    for value in values:
        # has_null must stay accurate even for "other"-kind columns: the
        # IS NULL pruning rule relies on it, so the scan never stops early.
        if value is None:
            has_null = True
            continue
        if other:
            continue
        if isinstance(value, bool):
            other = True
            continue
        if isinstance(value, (int, float)):
            if isinstance(value, float) and value != value:  # NaN
                other = True
                continue
            value_kind = "num"
        elif isinstance(value, str):
            value_kind = "str"
        else:
            other = True
            continue
        if kind is None:
            kind = value_kind
            low = high = value
        elif kind != value_kind:
            other = True
        else:
            if value < low:
                low = value
            if value > high:
                high = value
    if other:
        return ColumnStats("other", has_null=has_null)
    return ColumnStats(kind, low, high, has_null)


def zone_maps_of_columns(columns: Sequence[Sequence],
                         ) -> tuple[ColumnStats, ...]:
    """Per-column stats over already-materialized column arrays — the
    nearly-free columnar zone-map construction (one pass per array, no
    row-tuple indexing)."""
    return tuple(_column_stats(column) for column in columns)


def _range_allows(stats: ColumnStats, op: str, value: object) -> bool:
    """Whether any non-NULL value in [low, high] could satisfy
    ``col <op> value``. Callers must have established kind safety first."""
    if op == "=":
        return stats.low <= value <= stats.high
    if op == "<":
        return stats.low < value
    if op == "<=":
        return stats.low <= value
    if op == ">":
        return stats.high > value
    if op == ">=":
        return stats.high >= value
    if op in ("!=", "<>"):
        # Excludable only when every non-NULL value equals the literal.
        return not (stats.low == value == stats.high)
    return True


@dataclass(frozen=True)
class Partition:
    """An immutable columnar bundle of rows with zone maps.

    ``columns[i][j]`` is column ``i`` of row ``j``; ``row_ids[j]`` is row
    ``j``'s stable identifier.
    """

    id: int
    row_ids: tuple[str, ...]
    columns: tuple[tuple, ...]
    zone_maps: tuple[ColumnStats, ...] = ()

    @staticmethod
    def from_columns(row_ids: Sequence[str],
                     columns: Sequence[Sequence]) -> "Partition":
        """Build directly from parallel column arrays (the columnar write
        path; zone maps are a min/max pass over each array)."""
        cols = tuple(tuple(column) for column in columns)
        return Partition(next(_partition_ids), tuple(row_ids), cols,
                         zone_maps_of_columns(cols))

    def __len__(self) -> int:
        return len(self.row_ids)

    def might_match(self, bounds: Sequence[tuple]) -> bool:
        """Whether this partition could contain a row satisfying the
        conjunction of scan bounds (see
        :func:`repro.engine.executor.extract_scan_bounds`). False means
        the partition can be skipped.

        Soundness: the partition is only skipped when, for every row, the
        full predicate provably evaluates to FALSE or NULL *without
        raising*. Each ``("cmp", ...)`` bound therefore first checks kind
        safety — a column whose values are mixed-kind, boolean, NaN, or of
        a different kind than the literal could make ``t.compare`` raise,
        so such a partition is never skipped (returns True immediately).
        """
        zone_maps = self.zone_maps
        excluded = False
        for bound in bounds:
            if bound[0] == "cmp":
                __, index, op, value = bound
                if index >= len(zone_maps):
                    return True  # ragged row shape: cannot reason
                stats = zone_maps[index]
                if stats.kind is None:
                    # All NULL: the comparison is NULL on every row —
                    # never raises, never selects.
                    excluded = True
                    continue
                value_kind = ("num" if isinstance(value, (int, float))
                              and not isinstance(value, bool) else "str")
                if stats.kind != value_kind:
                    # Mixed/boolean column or kind mismatch: evaluating
                    # this conjunct could raise; keep the partition.
                    return True
                if not _range_allows(stats, op, value):
                    excluded = True
            else:  # ("null", index, negated) — IS [NOT] NULL never raises
                __, index, negated = bound
                if index >= len(zone_maps):
                    return True
                stats = zone_maps[index]
                if not negated:
                    if not stats.has_null:
                        excluded = True  # no NULLs: IS NULL false per row
                elif stats.kind is None:
                    excluded = True  # all NULL: IS NOT NULL false per row
        return not excluded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Partition(id={self.id}, rows={len(self.row_ids)})"


def build_partitions(row_ids: Sequence[str], columns: Sequence[Sequence],
                     max_rows: int) -> list[Partition]:
    """Chunk parallel ``row_ids`` / column arrays into partitions of at
    most ``max_rows`` rows."""
    return [Partition.from_columns(
                row_ids[start:start + max_rows],
                [column[start:start + max_rows] for column in columns])
            for start in range(0, len(row_ids), max_rows)]


def columns_of_rows(rows: Sequence[tuple], width: int) -> list[tuple]:
    """Transpose row tuples into ``width`` column arrays: how inserted
    rows (committed or staged in a transaction) enter the columnar
    layout."""
    if not rows:
        return [()] * width
    if set(map(len, rows)) != {width}:
        raise InternalError(f"rows do not all have width {width}")
    return list(zip(*rows))


def gather_columns(partitions: Iterable, width: int,
                   dead: AbstractSet[str] = frozenset(),
                   updates: Optional[Mapping[str, tuple]] = None,
                   ) -> tuple[list[str], list[list]]:
    """Concatenate the ``(row_ids, columns)`` of ``partitions`` in order,
    dropping the rows whose id is in ``dead`` and giving the rows whose id
    is in ``updates`` their new values in place (same id, same position).

    This is the columnar gather behind table materialization, DML and
    change-set partition rewrites, reclustering and transaction overlays:
    whole column arrays are extended (or masked with the C-level
    ``itertools.compress``), so no row tuple is ever built.
    """
    ids: list[str] = []
    columns: list[list] = [[] for __ in range(width)]
    for partition in partitions:
        row_ids = partition.row_ids
        if dead and not dead.isdisjoint(row_ids):
            mask = [row_id not in dead for row_id in row_ids]
            ids.extend(itertools.compress(row_ids, mask))
            for accumulator, column in zip(columns, partition.columns):
                accumulator.extend(itertools.compress(column, mask))
        else:
            ids.extend(row_ids)
            for accumulator, column in zip(columns, partition.columns):
                accumulator.extend(column)
    if updates:
        for position, row_id in enumerate(ids):
            new_row = updates.get(row_id)
            if new_row is not None:
                for column, value in zip(columns, new_row):
                    column[position] = value
    return ids, columns
