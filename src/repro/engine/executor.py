"""The relational executor.

Evaluates a bound logical plan against a :class:`SnapshotResolver`,
producing a :class:`~repro.engine.relation.Relation` whose row ids follow
the deterministic derivation of :mod:`repro.ivm.rowid`. Because full
evaluation and incremental evaluation derive identical ids, a FULL refresh,
a REINITIALIZE, and a long chain of INCREMENTAL refreshes all converge on
byte-identical table states — the property the paper's randomized
production validation (section 6.1) checks.

The executor is a pull-based engine: each operator materializes its
output. Execution is **vector-at-a-time** on the row-preserving hot path:
storage is columnar only and hands scans over as columnar blocks
(parallel per-column arrays), and filters, projections and limits
evaluate whole column arrays through the vectorized compiler
(:func:`compile_expression_columnar`) — one tight loop per expression
node per batch instead of one closure call per row. Aggregation and
window partitioning compute their group keys the same way. Operators
without a columnar kernel (joins, sorts) consume the relation's row view
and still use the closure-compiled row evaluators, so every plan shape
works on either layout; the interpreter (``Expression.eval``) remains the
reference semantics for both. DML matching (``UPDATE``/``DELETE ...
WHERE``) is an ordinary Filter over a Scan evaluated here, so it shares
the vectorized predicate and the zone-map pruning below.

Filters directly over scans additionally push simple column-vs-literal
bounds into the storage layer when the resolver supports it
(``scan_pruned``), letting zone-mapped micro-partitions be skipped
wholesale. Pruning only ever removes rows the predicate would reject, so
output rows, order, and row ids are unchanged; :func:`scan_pruning_stats`
reports the partitions-scanned/skipped split so EXPLAIN can surface it.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from itertools import compress as _itercompress, repeat as _repeat
from typing import Iterator, Optional, Sequence

from repro.engine import types as t
from repro.engine.expressions import (BoundParameter, ColumnRef, Comparison,
                                      Expression, IsNull, Literal,
                                      DEFAULT_CONTEXT, EvalContext,
                                      compile_expression,
                                      compile_expression_columnar,
                                      compile_group_key,
                                      compile_group_key_columnar,
                                      compile_row, compile_row_columnar,
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


#: When True, the row-preserving kernels convert row-major inputs to the
#: columnar layout and always take the vectorized path (normally they
#: vectorize only inputs that are already columnar, i.e. storage scans).
_FORCE_COLUMNAR = False


@contextmanager
def force_columnar():
    """Route every row-preserving kernel through the vectorized columnar
    evaluators, converting row-major inputs as needed. Used by the
    three-way equivalence property test to pin the vectorized path against
    the compiled and interpreted row paths."""
    global _FORCE_COLUMNAR
    saved = _FORCE_COLUMNAR
    _FORCE_COLUMNAR = True
    try:
        yield
    finally:
        _FORCE_COLUMNAR = saved


def _vectorize(relation: Relation) -> bool:
    """Whether a kernel should take the vectorized path for this input."""
    return _FORCE_COLUMNAR or relation.is_columnar


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
        # Requalify under the plan's schema (alias binding); data unchanged
        # and shared by reference — columnar when storage is.
        if source.is_columnar:
            return Relation.from_columns(plan.schema, source.columns,
                                         source.row_ids)
        return Relation(plan.schema, source.rows, source.row_ids)

    def _run_values(self, plan: lp.Values) -> Relation:
        relation = Relation(plan.schema)
        for index, row in enumerate(plan.rows):
            relation.append(f"v:{index}", row)
        return relation

    # -- row-preserving operators ---------------------------------------------

    def _run_project(self, plan: lp.Project) -> Relation:
        child = self.run(plan.child)
        if _vectorize(child):
            columns_fn = compile_row_columnar(plan.exprs, self._ctx)
            return Relation.from_columns(
                plan.schema, columns_fn(child.columns, len(child)),
                child.row_ids)
        row_fn = compile_row(plan.exprs, self._ctx)
        return Relation(plan.schema, [row_fn(row) for row in child.rows],
                        list(child.row_ids))

    def _run_filter(self, plan: lp.Filter) -> Relation:
        child = self._filter_input(plan)
        if _vectorize(child):
            predicate = compile_expression_columnar(plan.predicate, self._ctx)
            mask = predicate(child.columns, len(child))
            columns, ids = _compress(child.columns, child.row_ids, mask,
                                     emits_tristate(plan.predicate))
            return Relation.from_columns(plan.schema, columns, ids)
        predicate = compile_expression(plan.predicate, self._ctx)
        rows: list[tuple] = []
        ids: list[str] = []
        for row_id, row in zip(child.row_ids, child.rows):
            if predicate(row) is True:
                rows.append(row)
                ids.append(row_id)
        return Relation(plan.schema, rows, ids)

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
                    if source.is_columnar:
                        return Relation.from_columns(child.schema,
                                                     source.columns,
                                                     source.row_ids)
                    return Relation(child.schema, source.rows, source.row_ids)
        return self.run(child)

    # -- joins ----------------------------------------------------------------

    def _run_join(self, plan: lp.Join) -> Relation:
        left = self.run(plan.left)
        right = self.run(plan.right)
        return join_relations(plan, left, right, self._ctx)

    # -- union ------------------------------------------------------------------

    def _run_unionall(self, plan: lp.UnionAll) -> Relation:
        output = Relation(plan.schema)
        for branch, child in enumerate(plan.inputs):
            relation = self.run(child)
            for row_id, row in relation.pairs():
                output.append(rowid.union_id(branch, row_id), row)
        return output

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
        output = Relation(plan.schema)
        for index in ordered:
            output.append(child.row_ids[index], child.rows[index])
        return output

    def _run_limit(self, plan: lp.Limit) -> Relation:
        if plan.count < 0:
            raise UserError(f"LIMIT count must be non-negative, got {plan.count}")
        # The executor materializes each child, so LIMIT cannot stream the
        # subtree; it slices the child's backing arrays directly (columnar
        # when the child is).
        child = self.run(plan.child)
        count = plan.count
        if _vectorize(child):
            return Relation.from_columns(
                plan.schema, [column[:count] for column in child.columns],
                child.row_ids[:count])
        return Relation(plan.schema, child.rows[:count],
                        child.row_ids[:count])


# ---------------------------------------------------------------------------
# Streaming evaluation (per-micro-partition, for the cursor API)
# ---------------------------------------------------------------------------

class Block:
    """One streamed batch: the rows of a single micro-partition, columnar.

    ``columns[i][j]`` is column ``i`` of row ``j``; ``row_ids[j]`` is row
    ``j``'s id. The block iterates as ``(row_id, row)`` pairs and supports
    ``len`` and slicing, so pre-columnar batch consumers keep working; the
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

    def pairs(self) -> list[tuple[str, tuple]]:
        return list(zip(self.row_ids, self.row_tuples()))

    def __iter__(self):
        return iter(zip(self.row_ids, self.row_tuples()))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Block(self.row_ids[index],
                         [column[index] for column in self.columns])
        return (self.row_ids[index],
                tuple(column[index] for column in self.columns))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Block({len(self)} rows x {len(self.columns)} columns)"


#: One streamed batch: a columnar :class:`Block` (iterates as
#: ``(row_id, row)`` pairs) produced from a single micro-partition of the
#: scanned table.
RowBatch = Block


def stream_evaluate(plan: lp.PlanNode, resolver: SnapshotResolver,
                    ctx: EvalContext = DEFAULT_CONTEXT,
                    ) -> Optional[Iterator[RowBatch]]:
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


def _union_batches(streams: list) -> Iterator[RowBatch]:
    """Concatenate branch streams, rewriting row ids under the branch's
    union ordinal (identical to the materialized UNION ALL)."""
    union_id = rowid.union_id
    for branch, batches in enumerate(streams):
        for batch in batches:
            yield Block([union_id(branch, row_id)
                         for row_id in batch.row_ids], batch.columns)


def _limit_batches(batches: Iterator[RowBatch],
                   count: int) -> Iterator[RowBatch]:
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


def _topk_batches(batches: Iterator[RowBatch], order_by, count: int,
                  ctx: EvalContext, columns_fn) -> Iterator[RowBatch]:
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
    """Evaluate any join kind over two materialized inputs."""
    output = Relation(plan.schema)
    left_width = len(plan.left.schema)
    right_width = len(plan.right.schema)

    if plan.kind == "cross":
        for left_id, left_row in left.pairs():
            for right_id, right_row in right.pairs():
                output.append(rowid.join_id(left_id, right_id),
                              left_row + right_row)
        return output

    keys = lp.extract_equi_keys(plan)
    matched_right: set[int] = set()
    group_key = t.group_key

    if keys.left_keys:
        # Hash join on the equi-keys.
        left_key_fn = compile_row(keys.left_keys, ctx)
        right_key_fn = compile_row(keys.right_keys, ctx)
        residual = (compile_expression(keys.residual, ctx)
                    if keys.residual is not None else None)
        buckets: dict[tuple, list[int]] = {}
        for index, row in enumerate(right.rows):
            values = right_key_fn(row)
            if any(value is None for value in values):
                continue  # NULL keys never match
            buckets.setdefault(group_key(values), []).append(index)

        right_rows = right.rows
        right_ids = right.row_ids
        for left_index, left_row in enumerate(left.rows):
            values = left_key_fn(left_row)
            candidates: Sequence[int]
            if any(value is None for value in values):
                candidates = ()
            else:
                candidates = buckets.get(group_key(values), ())
            found = False
            for right_index in candidates:
                combined = left_row + right_rows[right_index]
                if residual is not None and residual(combined) is not True:
                    continue
                found = True
                matched_right.add(right_index)
                output.append(
                    rowid.join_id(left.row_ids[left_index],
                                  right_ids[right_index]), combined)
            if not found and plan.kind in ("left", "full"):
                output.append(rowid.outer_left_id(left.row_ids[left_index]),
                              left_row + (None,) * right_width)
    else:
        # No equi-keys: nested loops on the full condition.
        condition = (compile_expression(plan.condition, ctx)
                     if plan.condition is not None else None)
        for left_index, left_row in enumerate(left.rows):
            found = False
            for right_index, right_row in enumerate(right.rows):
                combined = left_row + right_row
                if condition is not None and condition(combined) is not True:
                    continue
                found = True
                matched_right.add(right_index)
                output.append(
                    rowid.join_id(left.row_ids[left_index],
                                  right.row_ids[right_index]), combined)
            if not found and plan.kind in ("left", "full"):
                output.append(rowid.outer_left_id(left.row_ids[left_index]),
                              left_row + (None,) * right_width)

    if plan.kind in ("right", "full"):
        for right_index, right_row in enumerate(right.rows):
            if right_index not in matched_right:
                output.append(rowid.outer_right_id(right.row_ids[right_index]),
                              (None,) * left_width + right_row)
    return output


def aggregate_relation(plan: lp.Aggregate, child: Relation,
                       ctx: EvalContext) -> Relation:
    """Evaluate grouped (or scalar) aggregation over a materialized input.

    Grouping keys are computed vectorized (one pass per group expression
    over the child's column arrays) when the input is columnar; the
    per-group aggregate evaluation consumes row tuples either way.
    """
    groups: dict[tuple, tuple[tuple, list[tuple]]] = {}
    group_key = t.group_key
    child_rows = child.rows
    if not plan.group_exprs:
        key_values_per_row = _repeat(())  # scalar aggregate: one group
    elif _vectorize(child):
        arrays = compile_row_columnar(plan.group_exprs, ctx)(
            child.columns, len(child))
        key_values_per_row = zip(*arrays)
    else:
        values_fn = compile_row(plan.group_exprs, ctx)
        key_values_per_row = map(values_fn, child_rows)
    for row, key_values in zip(child_rows, key_values_per_row):
        key = group_key(key_values)
        entry = groups.get(key)
        if entry is None:
            groups[key] = entry = (key_values, [])
        entry[1].append(row)

    output = Relation(plan.schema)
    if plan.is_scalar and not groups:
        # Scalar aggregate over empty input still yields one row.
        groups[group_key(())] = ((), [])
    arg_fns = [(None if call.arg is None
                else compile_expression(call.arg, ctx))
               for call in plan.aggregates]
    for key_values, rows in groups.values():
        aggregates = tuple(
            evaluate_aggregate(call.function, call.arg, call.distinct, rows,
                               ctx, arg_fn=arg_fn)
            for call, arg_fn in zip(plan.aggregates, arg_fns))
        output.append(rowid.group_id(key_values), key_values + aggregates)
    return output


def distinct_relation(schema, child: Relation) -> Relation:
    output = Relation(schema)
    seen: set[tuple] = set()
    group_key = t.group_key
    for row in child.rows:
        key = group_key(row)
        if key in seen:
            continue
        seen.add(key)
        output.append(rowid.distinct_id(row), row)
    return output


def window_relation(plan: lp.Window, child: Relation,
                    ctx: EvalContext) -> Relation:
    """Evaluate partitioned window calls, appending one column per call.
    Partition keys are computed vectorized over columnar inputs."""
    partitions: dict[tuple, list[int]] = {}
    child_rows = child.rows
    if _vectorize(child):
        keys = compile_group_key_columnar(plan.partition_exprs, ctx)(
            child.columns, len(child))
        for index, key in enumerate(keys):
            partitions.setdefault(key, []).append(index)
    else:
        key_fn = compile_group_key(plan.partition_exprs, ctx)
        for index, row in enumerate(child_rows):
            partitions.setdefault(key_fn(row), []).append(index)

    extra: list[list] = [[] for __ in child_rows]
    compiled = compile_window_calls(plan.calls, ctx)
    for indices in partitions.values():
        rows = [child_rows[index] for index in indices]
        ids = [child.row_ids[index] for index in indices]
        outputs = evaluate_window_calls(plan.calls, rows, ids, ctx,
                                        compiled=compiled)
        for local, index in enumerate(indices):
            extra[index] = outputs[local]

    output = Relation(plan.schema)
    for index, (row_id, row) in enumerate(child.pairs()):
        output.append(row_id, row + tuple(extra[index]))
    return output


def flatten_relation(plan: lp.Flatten, child: Relation,
                     ctx: EvalContext) -> Relation:
    """LATERAL FLATTEN: one output row per array element; non-array or NULL
    inputs contribute no rows (Snowflake's default OUTER => FALSE)."""
    output = Relation(plan.schema)
    input_fn = compile_expression(plan.input_expr, ctx)
    for row_id, row in zip(child.row_ids, child.rows):
        value = input_fn(row)
        if not isinstance(value, list):
            continue
        for index, element in enumerate(value):
            output.append(rowid.flatten_id(row_id, index),
                          row + (element, index))
    return output
