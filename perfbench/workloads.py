"""The three workloads, driven through the engine's public API only.

Every workload is a closed loop with one client: the caller waits for
each call before issuing the next, as with any embedded library. A run
is a fixed, seeded number of ops, so work and memory repeat exactly for
a given seed. Databases run single-process with serial scheduling
(``parallelism=None``).

* ``pipeline`` -- ingest-to-fresh latency: DML on the base tables, then
  one refresh period of simulated scheduler time, which refreshes the
  DT DAG.
* ``serve`` -- query latency on the settled DAG: prepared point lookups,
  a prepared range scan and an ad hoc GROUP BY.
* ``oltp`` -- tiny durable commits with fsync per commit, periodic DT
  refresh and checkpoint, then a simulated crash and recovery.
"""

from __future__ import annotations

import gc
import os
import shutil

from repro import Database
from repro.util.timeutil import MINUTE, SECOND

from data import KINDS, Ledger, ModerationFeed, digest

#: Per-workload input sizes and op counts. ``ops_per_s`` converts the
#: ``--seconds`` argument into a fixed op count (measured ops take about
#: that long on a 2-core x86 host); ``min_ops`` keeps at least ten
#: samples beyond the 90th percentile.
SIZES = {
    "pipeline": {"instances": 1000, "events": 20_000, "insert": 400,
                 "delete": 320, "update": 80, "ops_per_s": 9.0,
                 "min_ops": 100, "warmup": 3},
    "serve": {"instances": 1000, "events": 20_000, "lookups": 50,
              "scan": 500, "ops_per_s": 70.0, "min_ops": 100,
              "warmup": 20},
    "oltp": {"accounts": 20_000, "ops_per_s": 20.0, "min_ops": 250,
             "warmup": 10, "refresh_every": 50, "checkpoint_every": 200,
             "reopens": 3},
}
SETUP_BUILDS = 5
LOAD_BATCH = 5000
FLUSH_POLICY = "fsync"

WAREHOUSE = "bench_wh"
EVENTS_DDL = ("CREATE TABLE events (id int, ts int, source int, "
              "target int, severity int, kind text)")
INSTANCES_DDL = ("CREATE TABLE instances (id int, domain text, "
                 "region text, users int)")
#: The DT DAG: a filter, a join + GROUP BY, a GROUP BY, and a top-k
#: window over the GROUP BY DT (a DT on a DT).
DAG_DDL = (
    "CREATE DYNAMIC TABLE alerts TARGET_LAG = '1 minute' AS "
    "SELECT id, source, target, kind FROM events "
    "WHERE severity >= 4 AND kind <> 'noop'",
    "CREATE DYNAMIC TABLE dashboard TARGET_LAG = '1 minute' AS "
    "SELECT i.region, e.kind, count(*) AS n, sum(e.severity) AS sev "
    "FROM events e JOIN instances i ON e.target = i.id "
    "GROUP BY i.region, e.kind",
    "CREATE DYNAMIC TABLE per_source TARGET_LAG = '1 minute' AS "
    "SELECT source, count(*) AS n, sum(severity) AS sev FROM events "
    "GROUP BY source",
    "CREATE DYNAMIC TABLE top_sources TARGET_LAG = '1 minute' AS "
    "SELECT source, n, sev FROM per_source "
    "QUALIFY row_number() OVER (ORDER BY n DESC, source) <= 10",
)
DAG_TABLES = ("alerts", "dashboard", "per_source", "top_sources")
#: The scheduler's refresh period for a 1-minute target lag (the base
#: canonical period, 48 s). Advancing by exactly one period per op gives
#: every op exactly one refresh tick of the whole DAG.
REFRESH_PERIOD = 48 * SECOND


def op_count(workload: str, seconds: int) -> int:
    sizes = SIZES[workload]
    return max(sizes["min_ops"], round(sizes["ops_per_s"] * seconds))


def versions_retained(db: Database) -> int:
    return sum(db.catalog.versioned_table(entry.name).version_count
               for kind in ("table", "dynamic table")
               for entry in db.catalog.entries(kind=kind))


class Workload:
    """Base: ``build`` loads the inputs, ``op`` runs one timed op and
    returns the answers to check, ``check_op`` compares them with the
    model afterwards, outside every timed and traced region."""

    name = ""

    def __init__(self, harness, seed: int):
        self.harness = harness
        self.seed = seed
        self.sizes = SIZES[self.name]
        self.db: Database | None = None

    def inputs_digest(self) -> str:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def before_op(self, index: int) -> None:
        """Generate the next op's inputs (untimed)."""

    def op(self):
        raise NotImplementedError

    def check_op(self, answers) -> list[str]:
        """Compare an acknowledged op's answers with the model."""
        return []

    def maintenance(self, index: int) -> None:
        """Untimed work after op ``index`` (traced, host-corrected)."""

    def final_checks(self) -> list[tuple[str, bool]]:
        """Checks after the op loop; also records ``self.versions``."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what the object itself cannot drop (files, handles)."""


# -- pipeline and serve --------------------------------------------------------

class _Moderation(Workload):
    """Shared set-up: the moderation tables and the four-DT DAG."""

    def inputs_digest(self) -> str:
        feed = ModerationFeed(self.seed, self.sizes["instances"],
                              self.sizes["events"])
        return digest(feed.instance_rows() + feed.initial_events)

    def build(self) -> None:
        measure = self.harness.setup_chunk
        self.feed = feed = ModerationFeed(self.seed, self.sizes["instances"],
                                          self.sizes["events"])

        def create():
            db = Database(parallelism=None)
            db.create_warehouse(WAREHOUSE)
            session = db.session()
            session.use_warehouse(WAREHOUSE)
            session.execute(INSTANCES_DDL)
            session.execute(EVENTS_DDL)
            return db, session

        self.db, self.session = measure(create)
        instance_rows = feed.instance_rows()
        measure(lambda: self.session.prepare(
            "INSERT INTO instances VALUES (?, ?, ?, ?)"
        ).executemany(instance_rows))
        self.insert = self.session.prepare(
            "INSERT INTO events VALUES (?, ?, ?, ?, ?, ?)")
        events = feed.initial_events
        for start in range(0, len(events), LOAD_BATCH):
            batch = events[start:start + LOAD_BATCH]
            measure(lambda: self.insert.executemany(batch))
        for ddl in DAG_DDL:
            measure(lambda: self.session.execute(ddl))

    def final_checks(self) -> list[tuple[str, bool]]:
        db, feed = self.db, self.feed
        self.versions = versions_retained(db)
        expected = {
            "alerts": feed.alerts(),
            "dashboard": feed.dashboard(),
            "per_source": sorted((source, n, sev) for source, (n, sev)
                                 in feed.per_source().items()),
            "top_sources": feed.top_sources(),
        }
        checks = []
        for name in DAG_TABLES:
            rows = sorted(db.query(f"SELECT * FROM {name}").rows)
            checks.append((f"{name} equals the model", rows == expected[name]))
            checks.append((f"check_dvs({name})", _dvs(db, name)))
        return checks


class Pipeline(_Moderation):
    name = "pipeline"

    def build(self) -> None:
        super().build()
        self.delete = self.session.prepare("DELETE FROM events WHERE ts < ?")
        self.update = self.session.prepare(
            "UPDATE events SET severity = ? WHERE ts >= ? AND ts < ?")

    def before_op(self, index: int) -> None:
        feed, sizes = self.feed, self.sizes
        self.rows = feed.new_events(sizes["insert"])
        self.cutoff = feed.sweep(sizes["delete"])
        self.reclass = feed.reclassify(sizes["update"])
        self.ingested_at = self.db.now

    def op(self):
        self.insert.executemany(self.rows)
        self.delete.execute((self.cutoff,))
        self.update.execute(self.reclass)
        return self.db.run_for(REFRESH_PERIOD)

    def check_op(self, report) -> list[str]:
        problems = []
        if report.refreshes_failed:
            problems.append(f"{report.refreshes_failed} refreshes failed")
        if report.refreshes_skipped:
            problems.append(f"{report.refreshes_skipped} refreshes skipped")
        for name in DAG_TABLES:
            frontier = self.db.dynamic_table(name).frontier
            if frontier.data_timestamp < self.ingested_at:
                problems.append(f"{name} is not fresh after the op")
        return problems


class Serve(_Moderation):
    name = "serve"

    def build(self) -> None:
        super().build()
        # Settle: let the scheduler bring every DT to a quiet state.
        self.harness.setup_chunk(lambda: self.db.run_for(2 * MINUTE))
        self.lookup = self.session.prepare(
            "SELECT n, sev FROM per_source WHERE source = ?")
        self.scan = self.session.prepare(
            "SELECT id, source, severity FROM events "
            "WHERE ts >= ? AND ts < ?")
        # The DAG is static from here on: expected answers computed once.
        self.per_source = self.feed.per_source()
        self.groups = {kind: self.feed.region_totals(kind) for kind in KINDS}

    def before_op(self, index: int) -> None:
        feed = self.feed
        self.sources = feed.pick_sources(self.sizes["lookups"])
        self.range = feed.pick_range(self.sizes["scan"])
        self.kind = feed.pick_kind()
        self.adhoc = ("SELECT region, sum(n) AS n, sum(sev) AS sev "
                      f"FROM dashboard WHERE kind <> '{self.kind}' "
                      "GROUP BY region")

    def op(self):
        lookup = self.lookup
        points = [lookup.query((source,)).rows for source in self.sources]
        scanned = self.scan.query(self.range).rows
        grouped = self.session.query(self.adhoc).rows
        return points, scanned, grouped

    def check_op(self, answers) -> list[str]:
        points, scanned, grouped = answers
        problems = []
        for source, rows in zip(self.sources, points):
            expected = self.per_source.get(source)
            if rows != ([expected] if expected is not None else []):
                problems.append(f"lookup({source}) returned {rows}")
        if sorted(scanned) != self.feed.range_rows(*self.range):
            problems.append(f"range scan {self.range} mismatch")
        if sorted(grouped) != self.groups[self.kind]:
            problems.append(f"GROUP BY excluding {self.kind} mismatch")
        return problems


# -- oltp ----------------------------------------------------------------------

class Oltp(Workload):
    name = "oltp"

    def __init__(self, harness, seed: int):
        super().__init__(harness, seed)
        self.root = harness.scratch_dir
        self.path = os.path.join(self.root, "db")
        self.recover_raw: list[float] = []
        self.recover_ref: list[float] = []

    def inputs_digest(self) -> str:
        return digest(Ledger(self.seed, self.sizes["accounts"]).account_rows())

    def build(self) -> None:
        measure = self.harness.setup_chunk
        self.ledger = ledger = Ledger(self.seed, self.sizes["accounts"])
        shutil.rmtree(self.path, ignore_errors=True)

        def create():
            db = Database(path=self.path, durability=FLUSH_POLICY,
                          parallelism=None)
            db.create_warehouse(WAREHOUSE)
            session = db.session()
            session.use_warehouse(WAREHOUSE)
            session.execute(
                "CREATE TABLE accounts (id int, branch int, balance int)")
            return db, session

        self.db, self.session = measure(create)
        insert = self.session.prepare("INSERT INTO accounts VALUES (?, ?, ?)")
        rows = ledger.account_rows()
        for start in range(0, len(rows), LOAD_BATCH):
            batch = rows[start:start + LOAD_BATCH]
            measure(lambda: insert.executemany(batch))
        measure(lambda: self.session.execute(
            "CREATE DYNAMIC TABLE branch_totals TARGET_LAG = '1 minute' AS "
            "SELECT branch, count(*) AS n, sum(balance) AS total "
            "FROM accounts GROUP BY branch"))
        self.update = self.session.prepare(
            "UPDATE accounts SET balance = balance + ? WHERE id = ?")

    def teardown(self) -> None:
        self.db.close()
        self.db = self.session = self.update = None
        shutil.rmtree(self.path, ignore_errors=True)

    def before_op(self, index: int) -> None:
        self.transfer = self.ledger.next_transfer()

    def op(self):
        self.update.execute(self.transfer)

    def check_op(self, answers) -> list[str]:
        self.ledger.apply(*self.transfer)  # acknowledged: the model follows
        return []

    def maintenance(self, index: int) -> None:
        done = index + 1
        if done % self.sizes["refresh_every"] == 0:
            self.harness.section(
                f"refresh{done}",
                lambda: self.db.refresh_dynamic_table("branch_totals"))
        if done % self.sizes["checkpoint_every"] == 0:
            self.harness.section(f"checkpoint{done}", self.db.checkpoint)

    def final_checks(self) -> list[tuple[str, bool]]:
        checks = self.ledger_checks(self.db, "live")
        self.versions = versions_retained(self.db)
        # Simulated crash: copy the directory as the process would leave
        # it, then drop every handle without close().
        copies = []
        for index in range(self.sizes["reopens"]):
            copy = os.path.join(self.root, f"crash{index}")
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(self.path, copy)
            copies.append(copy)
        self.db = self.session = self.update = None
        gc.collect()
        for index, copy in enumerate(copies):
            reopened, raw, ref = self.harness.section(
                f"recover{index}",
                lambda: Database(path=copy, durability=FLUSH_POLICY,
                                 parallelism=None))
            self.recover_raw.append(raw)
            self.recover_ref.append(ref)
            checks += self.ledger_checks(reopened, f"reopen {index}")
            reopened.close()
            del reopened
            gc.collect()
            shutil.rmtree(copy, ignore_errors=True)
        shutil.rmtree(self.path, ignore_errors=True)
        return checks

    def ledger_checks(self, db: Database, label: str) -> list[tuple[str, bool]]:
        balances = dict(db.query("SELECT id, balance FROM accounts").rows)
        db.refresh_dynamic_table("branch_totals")
        totals = sorted(db.query("SELECT * FROM branch_totals").rows)
        return [(f"{label}: every acknowledged balance",
                 balances == self.ledger.balances),
                (f"{label}: branch_totals equals the model",
                 totals == self.ledger.branch_totals()),
                (f"{label}: check_dvs(branch_totals)",
                 _dvs(db, "branch_totals"))]


def _dvs(db: Database, name: str) -> bool:
    try:
        return db.check_dvs(name)
    except AssertionError:
        return False


WORKLOADS = {cls.name: cls for cls in (Pipeline, Serve, Oltp)}
