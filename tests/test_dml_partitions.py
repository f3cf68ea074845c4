"""DML on multi-partition tables: copy-on-write rewrites, pruning
soundness, and transaction overlays that agree with every read path.

Each table here uses 4-row micro-partitions (set on the storage object
before loading), so a few dozen rows span many partitions with disjoint
``id`` zone maps.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import Database
from repro.engine.executor import stream_evaluate
from repro.errors import EvaluationError
from repro.plan import logical as lp
from repro.streams.changes import changes_between

PARTITION_ROWS = 4
ROWS = 20


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (id int, b int)")
    database.catalog.versioned_table("t").partition_rows = PARTITION_ROWS
    # b is 0 on ids 12..19 only: those rows sit in the last two
    # partitions, whose id zone maps are [12, 15] and [16, 19].
    database.execute("INSERT INTO t VALUES " + ", ".join(
        f"({i}, {0 if i >= 12 else 1})" for i in range(ROWS)))
    return database


def _table(db):
    return db.catalog.versioned_table("t")


def _pairs(relation):
    return list(zip(relation.row_ids, relation.rows))


class TestCopyOnWriteRewrite:
    def test_point_update_replaces_exactly_one_partition(self, db):
        table = _table(db)
        before_version = table.current_version
        before = table.partitions_of(before_version)
        assert len(before) == ROWS // PARTITION_ROWS
        old_rows = dict(_pairs(table.relation(before_version)))

        db.execute("UPDATE t SET b = 100 WHERE id = ?", (6,))

        after = table.partitions_of(table.current_version)
        before_ids = {partition.id for partition in before}
        after_ids = {partition.id for partition in after}
        assert len(before_ids - after_ids) == 1
        assert len(after_ids - before_ids) == 1
        # Every untouched partition is the very same object.
        shared = {id(partition) for partition in before} & {
            id(partition) for partition in after}
        assert len(shared) == len(before) - 1

        (rewritten,) = [partition for partition in after
                        if partition.id not in before_ids]
        (replaced,) = [partition for partition in before
                       if partition.id not in after_ids]
        assert rewritten.row_ids == replaced.row_ids  # ids and order kept
        assert rewritten.columns[0] == (4, 5, 6, 7)
        assert rewritten.columns[1] == (1, 1, 100, 1)

        changes = changes_between(table, before_version,
                                  table.current_version)
        (row_id,) = [row_id for row_id, row in old_rows.items()
                     if row[0] == 6]
        assert sorted((c.action.value, c.row_id, c.row) for c in changes) == [
            ("delete", row_id, (6, 1)), ("insert", row_id, (6, 100))]
        assert table.current_version.written_ids == frozenset({row_id})

    def test_delete_drops_rows_and_keeps_the_rest(self, db):
        table = _table(db)
        before = table.partitions_of(table.current_version)
        db.execute("DELETE FROM t WHERE id >= 9 AND id <= 10")
        after = table.partitions_of(table.current_version)
        assert len({id(p) for p in before} & {id(p) for p in after}) == 4
        assert sorted(row[0] for row in db.query("SELECT id FROM t").rows) \
            == [i for i in range(ROWS) if i not in (9, 10)]


class TestPruningSoundness:
    def test_raising_conjunct_still_raises_on_pruned_partitions(self, db):
        # id = 5 alone would let the zone maps skip the b = 0 partitions,
        # but 1 % b raises there, so nothing may be skipped.
        with pytest.raises(EvaluationError, match="division by zero"):
            db.execute("DELETE FROM t WHERE 1 % b = 0 AND id = 5")
        with pytest.raises(EvaluationError, match="division by zero"):
            db.execute("UPDATE t SET b = 7 WHERE 1 % b = 0 AND id = ?", (5,))
        assert db.query("SELECT count(*) n FROM t").rows == [(ROWS,)]

    def test_prunable_predicate_matches_unpruned_answer(self, db):
        assert db.execute("DELETE FROM t WHERE id = 5") is None
        assert db.query("SELECT count(*) n FROM t WHERE id = 5").rows == [(0,)]
        assert db.query("SELECT count(*) n FROM t").rows == [(ROWS - 1,)]


class TestTransactionOverlay:
    def test_scan_stream_and_commit_agree(self, db):
        session = db.session()
        session.begin()
        session.execute("INSERT INTO t VALUES (100, 1), (101, 1), (102, 1)")
        session.execute("UPDATE t SET b = 50 WHERE id = 2 OR id = 101")
        session.execute("DELETE FROM t WHERE id = 13 OR id = 102")
        session.execute("INSERT INTO t VALUES (103, 3)")
        session.execute("UPDATE t SET b = 60 WHERE id = 103")
        session.execute("DELETE FROM t WHERE id >= 16 AND id < 18")
        txn = session._active_txn()

        overlay = txn.scan("t")
        expected = [(i, 50 if i == 2 else (0 if i >= 12 else 1))
                    for i in range(ROWS) if i not in (13, 16, 17)]
        expected += [(100, 1), (101, 50), (103, 60)]
        assert overlay.rows == expected

        # The streaming read serves the same rows, ids and order.
        scan = lp.Scan("t", _table(db).schema.requalified("t"))
        streamed = [pair for block in stream_evaluate(scan, txn)
                    for pair in zip(block.row_ids, block.row_tuples())]
        assert streamed == _pairs(overlay)
        cursor = session.cursor()
        cursor.execute("SELECT id, b FROM t")
        assert cursor.fetchall() == expected
        # A pruned read inside the transaction is the overlay restricted
        # to the matching rows.
        assert session.query("SELECT id, b FROM t WHERE id >= 100").rows == [
            (100, 1), (101, 50), (103, 60)]

        session.commit()
        committed = _pairs(_table(db).relation())
        staged = [(row_id, row) for row_id, row in _pairs(overlay)
                  if txn.is_provisional("t", row_id)]
        base = [(row_id, row) for row_id, row in _pairs(overlay)
                if not txn.is_provisional("t", row_id)]
        # Committed rows keep their ids; the staged inserts get real ids
        # at apply time and land last, in staging order.
        assert dict(committed[:len(base)]) == dict(base)
        assert [row for __, row in committed[len(base):]] == [
            row for __, row in staged]
        assert sorted(row for __, row in committed) == sorted(expected)


_MULTI_PARTITION_DELETE = """
from repro import Database
db = Database()
db.execute("CREATE TABLE t (id int)")
db.catalog.versioned_table("t").partition_rows = 2
db.execute("INSERT INTO t VALUES " + ", ".join(f"({i})" for i in range(12)))
db.execute("DELETE FROM t WHERE id IN (1, 5, 9)")
print([row[0] for row in db.query("SELECT id FROM t").rows])
"""


class TestDeterministicPartitionOrder:
    def test_multi_partition_delete_order_ignores_hash_seed(self):
        # The DELETE rewrites three partitions; their replacements (and so
        # the unordered SELECT order) must not depend on set iteration
        # order, i.e. on the interpreter's string-hash seed.
        src = str(Path(repro.__file__).resolve().parent.parent)
        outputs = set()
        for seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", _MULTI_PARTITION_DELETE], env=env,
                capture_output=True, text=True, check=True)
            outputs.add(result.stdout)
        assert len(outputs) == 1, outputs
