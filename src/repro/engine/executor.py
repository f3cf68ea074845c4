"""The relational executor.

Evaluates a bound logical plan against a :class:`SnapshotResolver`,
producing a :class:`~repro.engine.relation.Relation` whose row ids follow
the deterministic derivation of :mod:`repro.ivm.rowid`. Because full
evaluation and incremental evaluation derive identical ids, a FULL refresh,
a REINITIALIZE, and a long chain of INCREMENTAL refreshes all converge on
byte-identical table states — the property the paper's randomized
production validation (section 6.1) checks.

The executor is a pull-based engine: each operator materializes its
output. Execution is **vector-at-a-time**: every relation is a columnar
block (parallel per-column arrays plus row ids), storage hands scans over
as such blocks, and filters, projections and limits evaluate whole column
arrays through the vectorized compiler
(:func:`compile_expression_columnar`) — one tight loop per expression
node per batch instead of one closure call per row. Aggregation, window
partitioning and hash joins compute their keys the same way. Operators
that keep their input rows build their output by gathering positions:
a join matches left/right index lists (``None`` on a padded side) and
gathers each column once; sort and DISTINCT gather the surviving
positions; UNION ALL concatenates columns; a window appends its computed
columns to the child's. Only the consumers that need row shape read the
relation's row view, once each: the per-group aggregate loop, sort keys,
window partitions and the join residual (checked on candidate pairs
only). The interpreter (``Expression.eval``) remains the reference
semantics. DML matching (``UPDATE``/``DELETE ... WHERE``) is an ordinary
Filter over a Scan evaluated here, so it shares the vectorized predicate
and the zone-map pruning below.

Filters directly over scans additionally push simple column-vs-literal
bounds into the storage layer when the resolver supports it
(``scan_pruned``), letting zone-mapped micro-partitions be skipped
wholesale. Pruning only ever removes rows the predicate would reject, so
output rows, order, and row ids are unchanged; :func:`scan_pruning_stats`
reports the partitions-scanned/skipped split so EXPLAIN can surface it.
"""

from __future__ import annotations

import heapq
from itertools import compress as _itercompress, repeat as _repeat
from typing import Iterator, Optional, Sequence

from repro.engine import types as t
from repro.engine.expressions import (BoundParameter, ColumnRef, Comparison,
                                      Expression, IsNull, Literal,
                                      DEFAULT_CONTEXT, EvalContext,
                                      compile_expression,
                                      compile_expression_columnar,
                                      compile_group_key_columnar,
                                      compile_row_columnar,
                                      conjuncts, emits_tristate)
from repro.engine.relation import Relation, SnapshotResolver
from repro.engine.window import (compile_window_calls, evaluate_window_calls,
                                 sort_partition, _compare_with_nulls)
from repro.errors import InternalError, ReproError, UserError
from repro.ivm import rowid
from repro.plan import logical as lp
from repro.engine.aggregates import evaluate_aggregate


def evaluate(plan: lp.PlanNode, resolver: SnapshotResolver,
             ctx: EvalContext = DEFAULT_CONTEXT) -> Relation:
    """Evaluate ``plan`` against ``resolver``'s snapshot."""
    return _Executor(resolver, ctx).run(plan)


#: A pushed-down scan bound: either ``("cmp", column_index, op, value)``
#: for ``col <op> literal`` conjuncts (op in ``= != <> < <= > >=``) or
#: ``("null", column_index, negated)`` for ``col IS [NOT] NULL``. Storage
#: may use zone maps to skip partitions where no row can satisfy the
#: conjunction.
ScanBound = tuple

_SAFE_CMP_OPS = {"=", "!=", "<>", "<", "<=", ">", ">="}
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=",
            "!=": "!=", "<>": "<>"}


def _const_operand(expr: Expression,
                   ctx: Optional[EvalContext]) -> tuple[bool, object]:
    """``(True, value)`` when ``expr`` is a constant at scan time: a
    Literal, or — when the execution context is available — a bind
    parameter whose slot carries a value. Prepared statements thus prune
    exactly like the equivalent literal query."""
    if isinstance(expr, Literal):
        return True, expr.value
    if (ctx is not None and isinstance(expr, BoundParameter)
            and expr.slot < len(ctx.params)):
        return True, ctx.params[expr.slot]
    return False, None


def extract_scan_bounds(predicate: Expression,
                        ctx: Optional[EvalContext] = None) -> list[ScanBound]:
    """Decompose a filter predicate into prunable scan bounds.

    Pruning is only sound when skipping a partition cannot change *any*
    observable behaviour — including runtime errors the predicate would
    raise on the skipped rows (a conjunct like ``1 % b = 0`` raises on
    ``b = 0`` rows even when another conjunct already excludes them). So
    bounds are returned only when **every** top-level conjunct is a
    provably non-raising shape — ``col <op> constant`` (either side; a
    constant is a literal, or a bound parameter value when ``ctx`` is
    supplied), ``col IS [NOT] NULL``, or a bare TRUE literal — and the
    per-partition check (:meth:`Partition.might_match`) additionally
    verifies that each compared column's zone kind matches the constant,
    so ``t.compare`` cannot raise on any row of a skipped partition. Any
    other conjunct disables pruning for the whole predicate (empty
    result).
    """
    bounds: list[ScanBound] = []
    for part in conjuncts(predicate):
        if isinstance(part, Comparison) and part.op in _SAFE_CMP_OPS:
            left, right, op = part.left, part.right, part.op
            if _const_operand(left, ctx)[0] and isinstance(right, ColumnRef):
                left, right, op = right, left, _FLIPPED[op]
            is_const, value = _const_operand(right, ctx)
            if not (isinstance(left, ColumnRef) and is_const):
                return []
            if (isinstance(value, bool)
                    or not isinstance(value, (int, float, str))):
                return []  # bools and non-scalars don't zone-map cleanly
            if isinstance(value, float) and value != value:
                return []  # NaN comparisons keep t.compare's odd semantics
            bounds.append(("cmp", left.index, op, value))
            continue
        if isinstance(part, IsNull) and isinstance(part.operand, ColumnRef):
            bounds.append(("null", part.operand.index, part.negated))
            continue
        if isinstance(part, Literal) and part.value is True:
            continue  # trivial conjunct (e.g. from conjoin of nothing)
        return []  # anything else might raise on skipped rows: no pruning
    return bounds


def scan_pruning_stats(plan: lp.PlanNode, resolver: SnapshotResolver,
                       ctx: Optional[EvalContext] = None,
                       ) -> list[tuple[str, int, int, int]]:
    """Zone-map pruning statistics for every Filter-over-Scan in ``plan``.

    Returns ``(table, total, scanned, skipped)`` tuples — how many of the
    table's micro-partitions the columnar scan reads versus skips under
    the filter's pushed-down bounds — in plan traversal order. Tables
    whose resolver has no partition-granular access, and filters whose
    predicate yields no sound bounds, report zero skipped (every
    partition scanned). This is what ``EXPLAIN`` surfaces so the pruning
    behaviour of the columnar scan path is observable without tracing the
    executor.
    """
    scan_partitions = getattr(resolver, "scan_partitions", None)
    if scan_partitions is None:
        return []
    stats: list[tuple[str, int, int, int]] = []
    for node in plan.walk():
        if not (isinstance(node, lp.Filter) and isinstance(node.child, lp.Scan)):
            continue
        table = node.child.table
        try:
            partitions = list(scan_partitions(table))
        except ReproError:
            # Best-effort reporting: a table that cannot be read right
            # now (e.g. an uninitialized dynamic table) contributes no
            # stats rather than failing the caller (EXPLAIN).
            continue
        total = len(partitions)
        bounds = extract_scan_bounds(node.predicate, ctx)
        if bounds:
            scanned = sum(1 for partition in partitions
                          if partition.might_match(bounds))
        else:
            scanned = total
        stats.append((table, total, scanned, total - scanned))
    return stats


def _compress(block_columns: Sequence[Sequence], row_ids: Sequence[str],
              mask: Sequence, strict: bool = False) -> tuple[list, list]:
    """Select the rows whose mask entry is True (columnar filter kernel).

    SQL selects only rows where the predicate is exactly TRUE — never
    NULL, never a merely truthy value — so unless the predicate provably
    emits three-valued booleans only (``strict``, from
    :func:`emits_tristate`; NULL is falsy to ``itertools.compress``), the
    mask is normalized first. Each column is then gathered with the
    C-level ``itertools.compress``.
    """
    selected = mask if strict else [value is True for value in mask]
    ids = (row_ids if isinstance(row_ids, list) else list(row_ids))
    kept = list(_itercompress(ids, selected))
    if len(kept) == len(ids):
        return list(block_columns), ids
    return ([list(_itercompress(column, selected))
             for column in block_columns], kept)


class _Executor:
    def __init__(self, resolver: SnapshotResolver, ctx: EvalContext):
        self._resolver = resolver
        self._ctx = ctx

    def run(self, plan: lp.PlanNode) -> Relation:
        method = getattr(self, f"_run_{type(plan).__name__.lower()}", None)
        if method is None:
            raise InternalError(f"no executor for {type(plan).__name__}")
        return method(plan)

    # -- leaves --------------------------------------------------------------

    def _run_scan(self, plan: lp.Scan) -> Relation:
        source = self._resolver.scan(plan.table)
        # Requalify under the plan's schema (alias binding); the arrays are
        # shared by reference.
        return Relation.from_columns(plan.schema, source.columns,
                                     source.row_ids)

    def _run_values(self, plan: lp.Values) -> Relation:
        return Relation(plan.schema, plan.rows,
                        [f"v:{index}" for index in range(len(plan.rows))])

    # -- row-preserving operators ---------------------------------------------

    def _run_project(self, plan: lp.Project) -> Relation:
        child = self.run(plan.child)
        columns_fn = compile_row_columnar(plan.exprs, self._ctx)
        return Relation.from_columns(
            plan.schema, columns_fn(child.columns, len(child)), child.row_ids)

    def _run_filter(self, plan: lp.Filter) -> Relation:
        child = self._filter_input(plan)
        predicate = compile_expression_columnar(plan.predicate, self._ctx)
        mask = predicate(child.columns, len(child))
        columns, ids = _compress(child.columns, child.row_ids, mask,
                                 emits_tristate(plan.predicate))
        return Relation.from_columns(plan.schema, columns, ids)

    def _filter_input(self, plan: lp.Filter) -> Relation:
        """The filter's input, zone-map pruned when it is a direct scan and
        the resolver supports pruned reads."""
        child = plan.child
        if isinstance(child, lp.Scan):
            scan_pruned = getattr(self._resolver, "scan_pruned", None)
            if scan_pruned is not None:
                bounds = extract_scan_bounds(plan.predicate, self._ctx)
                if bounds:
                    source = scan_pruned(child.table, bounds)
                    return Relation.from_columns(child.schema, source.columns,
                                                 source.row_ids)
        return self.run(child)

    # -- joins ----------------------------------------------------------------

    def _run_join(self, plan: lp.Join) -> Relation:
        left = self.run(plan.left)
        right = self.run(plan.right)
        return join_relations(plan, left, right, self._ctx)

    # -- union ------------------------------------------------------------------

    def _run_unionall(self, plan: lp.UnionAll) -> Relation:
        columns: list[list] = [[] for __ in plan.schema]
        row_ids: list[str] = []
        union_id = rowid.union_id
        for branch, child in enumerate(plan.inputs):
            relation = self.run(child)
            row_ids.extend([union_id(branch, row_id)
                            for row_id in relation.row_ids])
            for column, values in zip(columns, relation.columns):
                column.extend(values)
        return Relation.from_columns(plan.schema, columns, row_ids)

    # -- aggregation ---------------------------------------------------------

    def _run_aggregate(self, plan: lp.Aggregate) -> Relation:
        child = self.run(plan.child)
        return aggregate_relation(plan, child, self._ctx)

    def _run_distinct(self, plan: lp.Distinct) -> Relation:
        child = self.run(plan.child)
        return distinct_relation(plan.schema, child)

    # -- windows -----------------------------------------------------------------

    def _run_window(self, plan: lp.Window) -> Relation:
        child = self.run(plan.child)
        return window_relation(plan, child, self._ctx)

    # -- flatten ---------------------------------------------------------------

    def _run_flatten(self, plan: lp.Flatten) -> Relation:
        child = self.run(plan.child)
        return flatten_relation(plan, child, self._ctx)

    # -- presentation operators -------------------------------------------------

    def _run_sort(self, plan: lp.Sort) -> Relation:
        child = self.run(plan.child)
        ordered = sort_partition(child.rows, child.row_ids, plan.keys, self._ctx)
        return child.gather(ordered, plan.schema)

    def _run_limit(self, plan: lp.Limit) -> Relation:
        if plan.count < 0:
            raise UserError(f"LIMIT count must be non-negative, got {plan.count}")
        # The executor materializes each child, so LIMIT cannot stream the
        # subtree; it slices the child's column arrays directly.
        child = self.run(plan.child)
        count = plan.count
        return Relation.from_columns(
            plan.schema, [column[:count] for column in child.columns],
            child.row_ids[:count])


# ---------------------------------------------------------------------------
# Streaming evaluation (per-micro-partition, for the cursor API)
# ---------------------------------------------------------------------------

class Block:
    """One streamed batch: the rows of a single micro-partition, columnar.

    ``columns[i][j]`` is column ``i`` of row ``j``; ``row_ids[j]`` is row
    ``j``'s id. Slicing yields a block (LIMIT cuts a batch short); the
    cursor's fill loop uses :meth:`row_tuples` to materialize each page's
    tuples in one transpose.
    """

    __slots__ = ("row_ids", "columns")

    def __init__(self, row_ids: Sequence[str],
                 columns: Sequence[Sequence]):
        self.row_ids = row_ids
        self.columns = columns

    def __len__(self) -> int:
        return len(self.row_ids)

    def row_tuples(self) -> list[tuple]:
        """The block's rows as tuples (one transpose of the columns)."""
        if not self.columns:
            return [()] * len(self.row_ids)
        return list(zip(*self.columns))

    def __getitem__(self, index: slice) -> "Block":
        if not isinstance(index, slice):
            raise TypeError("a Block supports slicing only")
        return Block(self.row_ids[index],
                     [column[index] for column in self.columns])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Block({len(self)} rows x {len(self.columns)} columns)"


def stream_evaluate(plan: lp.PlanNode, resolver: SnapshotResolver,
                    ctx: EvalContext = DEFAULT_CONTEXT,
                    ) -> Optional[Iterator[Block]]:
    """Evaluate ``plan`` lazily, one micro-partition at a time.

    Supports the row-preserving pipeline shapes — a chain of Project /
    Filter / Limit over a single Scan, UNION ALL over such chains (branch
    streams are concatenated), and ``ORDER BY ... LIMIT k`` (a bounded
    top-k heap over the child stream) — when the resolver exposes
    partition-granular reads (``scan_partitions``). Returns an iterator of
    columnar :class:`Block` batches, one per surviving partition, or None
    when the plan (a join, aggregate, unbounded sort, ...) or the resolver
    cannot stream; callers then fall back to :func:`evaluate`.

    The stream produces exactly the rows, ids, and order of the
    materialized path: filters apply the same vectorized predicates (plus
    zone-map partition pruning, which only ever skips rows the predicate
    rejects), projections the same vectorized expressions, and the top-k
    heap the same total sort order (ORDER BY keys, then the stable
    tie-break digest). No list of more than one partition's rows is ever
    built — a sorted-limit cursor holds at most ``k`` rows beyond the
    current partition — which is what lets a cursor serve pages of a large
    scan in O(partition) memory.
    """
    if isinstance(plan, lp.Scan):
        partitions = _scan_partitions(resolver, plan.table, ())
        if partitions is None:
            return None
        return (Block(partition.row_ids, partition.columns)
                for partition in partitions)

    if isinstance(plan, lp.Filter):
        predicate = compile_expression_columnar(plan.predicate, ctx)
        strict = emits_tristate(plan.predicate)

        def filter_block(block: Block) -> Block:
            mask = predicate(block.columns, len(block))
            columns, ids = _compress(block.columns, block.row_ids, mask,
                                     strict)
            return Block(ids, columns)

        child = plan.child
        if isinstance(child, lp.Scan):
            bounds = extract_scan_bounds(plan.predicate, ctx)
            partitions = _scan_partitions(resolver, child.table, bounds)
            if partitions is None:
                return None
            return (filter_block(Block(partition.row_ids, partition.columns))
                    for partition in partitions)
        batches = stream_evaluate(child, resolver, ctx)
        if batches is None:
            return None
        return (filter_block(batch) for batch in batches)

    if isinstance(plan, lp.Project):
        batches = stream_evaluate(plan.child, resolver, ctx)
        if batches is None:
            return None
        columns_fn = compile_row_columnar(plan.exprs, ctx)
        return (Block(batch.row_ids, columns_fn(batch.columns, len(batch)))
                for batch in batches)

    if isinstance(plan, lp.Limit):
        if plan.count < 0:
            raise UserError(
                f"LIMIT count must be non-negative, got {plan.count}")
        child = plan.child
        # ORDER BY ... LIMIT k: a bounded top-k heap over the child
        # stream — the sorted-limit cursor never materializes the full
        # result. The Sort may sit directly below, or below the final
        # Project (how the builder binds ORDER BY over unprojected
        # columns).
        if isinstance(child, lp.Sort):
            batches = stream_evaluate(child.child, resolver, ctx)
            if batches is None:
                return None
            return _topk_batches(batches, child.keys, plan.count, ctx, None)
        if (isinstance(child, lp.Project)
                and isinstance(child.child, lp.Sort)):
            sort = child.child
            batches = stream_evaluate(sort.child, resolver, ctx)
            if batches is None:
                return None
            columns_fn = compile_row_columnar(child.exprs, ctx)
            return _topk_batches(batches, sort.keys, plan.count, ctx,
                                 columns_fn)
        batches = stream_evaluate(child, resolver, ctx)
        if batches is None:
            return None
        return _limit_batches(batches, plan.count)

    if isinstance(plan, lp.UnionAll):
        # Branch streams are *created* eagerly — pinning every branch's
        # snapshot at execute time, exactly like the materialized path —
        # then drained one after the other, so a unioned SELECT still
        # holds at most one partition's rows. Row ids match
        # ``_run_unionall`` (union_id over the branch ordinal).
        streams = []
        for child in plan.inputs:
            batches = stream_evaluate(child, resolver, ctx)
            if batches is None:
                return None  # one branch can't stream -> materialize all
            streams.append(batches)
        return _union_batches(streams)

    return None  # joins/aggregates/unbounded sorts/etc. must materialize


def _scan_partitions(resolver: SnapshotResolver, table: str,
                     bounds: Sequence[ScanBound]):
    """Partition iterator for ``table``, zone-map pruned under ``bounds``;
    None when the resolver has no partition-granular access."""
    scan_partitions = getattr(resolver, "scan_partitions", None)
    if scan_partitions is None:
        return None
    partitions = scan_partitions(table)
    if not bounds:
        return partitions
    return (partition for partition in partitions
            if partition.might_match(bounds))


def _union_batches(streams: list) -> Iterator[Block]:
    """Concatenate branch streams, rewriting row ids under the branch's
    union ordinal (identical to the materialized UNION ALL)."""
    union_id = rowid.union_id
    for branch, batches in enumerate(streams):
        for batch in batches:
            yield Block([union_id(branch, row_id)
                         for row_id in batch.row_ids], batch.columns)


def _limit_batches(batches: Iterator[Block],
                   count: int) -> Iterator[Block]:
    remaining = count
    for batch in batches:
        if remaining <= 0:
            return
        if len(batch) >= remaining:
            yield batch[:remaining]
            return
        remaining -= len(batch)
        yield batch


class _TopKEntry:
    """One candidate row in the top-k heap: ordered by the ORDER BY keys
    (NULLS LAST ascending / NULLS FIRST descending), then by the same
    stable tie-break as :func:`repro.engine.window.sort_partition` — the
    row's digest plus its row id, computed lazily (ties only)."""

    __slots__ = ("keys", "descending", "row_id", "row", "_tie")

    def __init__(self, keys: tuple, descending: tuple, row_id: str,
                 row: tuple):
        self.keys = keys
        self.descending = descending
        self.row_id = row_id
        self.row = row
        self._tie = None

    def _tie_key(self) -> tuple:
        tie = self._tie
        if tie is None:
            tie = self._tie = (t.stable_hash(self.row), self.row_id)
        return tie

    def __lt__(self, other: "_TopKEntry") -> bool:
        for position, descending in enumerate(self.descending):
            result = _compare_with_nulls(self.keys[position],
                                         other.keys[position], descending)
            if result != 0:
                return result < 0
        return self._tie_key() < other._tie_key()


def _topk_batches(batches: Iterator[Block], order_by, count: int,
                  ctx: EvalContext, columns_fn) -> Iterator[Block]:
    """Stream implementation of ``ORDER BY ... LIMIT count``: drain the
    child stream through a bounded heap holding at most ``count``
    candidates, then emit one block in exactly the materialized
    sort-then-limit order. ``columns_fn`` optionally applies a final
    projection (vectorized) to the ``count`` surviving rows — evaluated in
    output order, matching the materialized Project-over-Sort."""
    key_fns = [(compile_expression(expr, ctx), descending)
               for expr, descending in order_by]
    descending = tuple(flag for __, flag in key_fns)

    def entries() -> Iterator[_TopKEntry]:
        for batch in batches:
            for row_id, row in zip(batch.row_ids, batch.row_tuples()):
                keys = tuple(fn(row) for fn, __ in key_fns)
                yield _TopKEntry(keys, descending, row_id, row)

    top = heapq.nsmallest(count, entries()) if count else []
    if not top:
        return
    row_ids = [entry.row_id for entry in top]
    columns = list(zip(*(entry.row for entry in top)))
    if columns_fn is not None:
        columns = columns_fn(columns, len(row_ids))
    yield Block(row_ids, columns)


# ---------------------------------------------------------------------------
# Shared operator kernels (the IVM rules reuse these on delta inputs)
# ---------------------------------------------------------------------------

def join_relations(plan: lp.Join, left: Relation, right: Relation,
                   ctx: EvalContext) -> Relation:
    """Evaluate any join kind over two materialized inputs.

    Matching produces parallel left/right position lists (``None`` on a
    null-padded side) plus the output row ids; the output columns are then
    one gather per input column. Output order: for each left row, its
    matches in right-row order (or its null-padded row for LEFT/FULL when
    none match); then, for RIGHT/FULL, the unmatched right rows in order.
    """
    keys = lp.extract_equi_keys(plan)
    every_right = range(len(right))
    candidates: Sequence[Sequence[int]]
    if plan.kind == "cross":
        candidates, condition = [every_right] * len(left), None
    elif keys.left_keys:
        candidates = _hash_candidates(keys, left, right, ctx)
        condition = keys.residual
    else:  # no equi-keys: nested loops on the full condition
        candidates, condition = [every_right] * len(left), plan.condition
    residual = (compile_expression(condition, ctx)
                if condition is not None else None)
    if residual is not None:
        left_rows, right_rows = left.rows, right.rows

    left_ids, right_ids = left.row_ids, right.row_ids
    join_id = rowid.join_id
    pad_left = plan.kind in ("left", "full")
    matched: Optional[set[int]] = (set() if plan.kind in ("right", "full")
                                   else None)
    left_index: list[Optional[int]] = []
    right_index: list[Optional[int]] = []
    ids: list[str] = []
    for position, matches in enumerate(candidates):
        if residual is not None and matches:
            left_row = left_rows[position]
            matches = [index for index in matches
                       if residual(left_row + right_rows[index]) is True]
        left_id = left_ids[position]
        if matches:
            left_index.extend(_repeat(position, len(matches)))
            right_index.extend(matches)
            ids.extend([join_id(left_id, right_ids[index])
                        for index in matches])
            if matched is not None:
                matched.update(matches)
        elif pad_left:
            left_index.append(position)
            right_index.append(None)
            ids.append(rowid.outer_left_id(left_id))
    if matched is not None:
        for index in every_right:
            if index not in matched:
                left_index.append(None)
                right_index.append(index)
                ids.append(rowid.outer_right_id(right_ids[index]))

    columns = ([_gather_padded(column, left_index) for column in left.columns]
               + [_gather_padded(column, right_index)
                  for column in right.columns])
    return Relation.from_columns(plan.schema, columns, ids)


def _hash_candidates(keys: lp.EquiJoinKeys, left: Relation, right: Relation,
                     ctx: EvalContext) -> list[Sequence[int]]:
    """Per left row, the positions of the right rows with equal equi-keys
    (in right-row order). Keys are evaluated vectorized; a NULL in any key
    never matches."""
    group_key = t.group_key
    buckets: dict[tuple, list[int]] = {}
    right_keys = compile_row_columnar(keys.right_keys, ctx)(
        right.columns, len(right))
    for index, values in enumerate(zip(*right_keys)):
        if None not in values:
            buckets.setdefault(group_key(values), []).append(index)
    left_keys = compile_row_columnar(keys.left_keys, ctx)(
        left.columns, len(left))
    return [() if None in values else buckets.get(group_key(values), ())
            for values in zip(*left_keys)]


def _gather_padded(column: Sequence, indices: list[Optional[int]]) -> list:
    """``column`` at ``indices``, with NULL wherever the index is None."""
    if None not in indices:
        return list(map(column.__getitem__, indices))
    return [None if index is None else column[index] for index in indices]


def aggregate_relation(plan: lp.Aggregate, child: Relation,
                       ctx: EvalContext) -> Relation:
    """Evaluate grouped (or scalar) aggregation over a materialized input.

    Grouping keys are computed vectorized (one pass per group expression
    over the child's column arrays); each group's rows are then gathered
    and read as row tuples by the per-group aggregate evaluation, and the
    output rows are transposed once.
    """
    groups: dict[tuple, tuple[tuple, list[int]]] = {}
    group_key = t.group_key
    if plan.group_exprs:
        arrays = compile_row_columnar(plan.group_exprs, ctx)(
            child.columns, len(child))
        key_values_per_row = zip(*arrays)
    else:
        key_values_per_row = _repeat((), len(child))  # scalar: one group
    for index, key_values in enumerate(key_values_per_row):
        key = group_key(key_values)
        entry = groups.get(key)
        if entry is None:
            groups[key] = entry = (key_values, [])
        entry[1].append(index)

    if plan.is_scalar and not groups:
        # Scalar aggregate over empty input still yields one row.
        groups[group_key(())] = ((), [])
    arg_fns = [(None if call.arg is None
                else compile_expression(call.arg, ctx))
               for call in plan.aggregates]
    ids: list[str] = []
    rows: list[tuple] = []
    for key_values, indices in groups.values():
        group_rows = child.gather(indices).rows
        aggregates = tuple(
            evaluate_aggregate(call.function, call.arg, call.distinct,
                               group_rows, ctx, arg_fn=arg_fn)
            for call, arg_fn in zip(plan.aggregates, arg_fns))
        ids.append(rowid.group_id(key_values))
        rows.append(key_values + aggregates)
    return Relation(plan.schema, rows, ids)


def distinct_relation(schema, child: Relation) -> Relation:
    seen: set[tuple] = set()
    keep: list[int] = []
    ids: list[str] = []
    group_key = t.group_key
    for index, row in enumerate(child.rows):
        key = group_key(row)
        if key in seen:
            continue
        seen.add(key)
        keep.append(index)
        ids.append(rowid.distinct_id(row))
    return Relation.from_columns(
        schema, [_gather_padded(column, keep) for column in child.columns],
        ids)


def window_relation(plan: lp.Window, child: Relation,
                    ctx: EvalContext) -> Relation:
    """Evaluate partitioned window calls: the child's columns plus one
    computed column per call. Partition keys are computed vectorized."""
    partitions: dict[tuple, list[int]] = {}
    keys = compile_group_key_columnar(plan.partition_exprs, ctx)(
        child.columns, len(child))
    for index, key in enumerate(keys):
        partitions.setdefault(key, []).append(index)

    computed: list[list] = [[None] * len(child) for __ in plan.calls]
    compiled = compile_window_calls(plan.calls, ctx)
    for indices in partitions.values():
        partition = child.gather(indices)
        outputs = evaluate_window_calls(plan.calls, partition.rows,
                                        partition.row_ids, ctx,
                                        compiled=compiled)
        for call_index, column in enumerate(computed):
            for local, index in enumerate(indices):
                column[index] = outputs[local][call_index]
    return Relation.from_columns(plan.schema, list(child.columns) + computed,
                                 child.row_ids)


def flatten_relation(plan: lp.Flatten, child: Relation,
                     ctx: EvalContext) -> Relation:
    """LATERAL FLATTEN: one output row per array element; non-array or NULL
    inputs contribute no rows (Snowflake's default OUTER => FALSE)."""
    input_fn = compile_expression(plan.input_expr, ctx)
    ids: list[str] = []
    rows: list[tuple] = []
    for row_id, row in child.pairs():
        value = input_fn(row)
        if not isinstance(value, list):
            continue
        for index, element in enumerate(value):
            ids.append(rowid.flatten_id(row_id, index))
            rows.append(row + (element, index))
    return Relation(plan.schema, rows, ids)
