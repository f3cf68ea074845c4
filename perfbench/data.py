"""Seeded input generators and the plain-Python models used as oracles.

Nothing here imports the engine. The generators turn a seed into rows
and operation parameters; the models apply the same operations to plain
dicts and compute every expected answer with ordinary Python, so a
check never shares code with the system it checks.

The data has the shape of a Mastodon network-moderation feed:
``instances`` are servers, ``events`` are moderation actions one server
(``source``) takes against another (``target``).
"""

from __future__ import annotations

import hashlib
import random

KINDS = ("silence", "suspend", "reject_media", "reject_reports", "noop")
REGIONS = ("eu", "na", "sa", "asia", "oc", "af", "me", "jp")
TOP_K = 10


class ModerationFeed:
    """Generator and model of the ``instances`` / ``events`` tables.

    Event ``i`` has ``ts == i``: ingest is in time order, so a retention
    sweep is a range DELETE on the oldest timestamps and a ``ts`` range
    scan touches a narrow band of micro-partitions.
    """

    def __init__(self, seed: int, instances: int, events: int):
        self._rng = random.Random(seed)
        self.instance_count = instances
        self.instances = {
            i: (f"i{i}.social", REGIONS[self._rng.randrange(len(REGIONS))],
                self._rng.randrange(10, 50_000))
            for i in range(instances)}
        #: Live events: id -> [ts, source, target, severity, kind].
        self.events: dict[int, list] = {}
        self.next_id = 0
        self.low_ts = 0  # every ts below this has been swept
        self.initial_events = [self._new_event() for __ in range(events)]

    def _new_event(self) -> tuple:
        rng = self._rng
        event_id = self.next_id
        self.next_id += 1
        # Skewed sources: low ids are the loud servers.
        source = int(self.instance_count * rng.random() ** 2)
        row = (event_id, event_id, source,
               rng.randrange(self.instance_count), rng.randrange(1, 6),
               KINDS[rng.randrange(len(KINDS))])
        self.events[event_id] = list(row[1:])
        return row

    def instance_rows(self) -> list[tuple]:
        return [(i, domain, region, users)
                for i, (domain, region, users) in self.instances.items()]

    # -- the ingest stream ----------------------------------------------------

    def new_events(self, count: int) -> list[tuple]:
        return [self._new_event() for __ in range(count)]

    def sweep(self, count: int) -> int:
        """Retention: drop the ``count`` oldest timestamps; returns the
        exclusive upper bound the DELETE uses."""
        self.low_ts += count
        for event_id in range(self.low_ts - count, self.low_ts):
            self.events.pop(event_id, None)
        return self.low_ts

    def reclassify(self, width: int) -> tuple[int, int, int]:
        """A range UPDATE of ``width`` live timestamps to a new severity;
        returns ``(severity, lo, hi)``."""
        rng = self._rng
        lo = rng.randrange(self.low_ts, self.next_id - width)
        severity = rng.randrange(1, 6)
        for event_id in range(lo, lo + width):
            row = self.events.get(event_id)
            if row is not None:
                row[3] = severity
        return severity, lo, lo + width

    def pick_sources(self, count: int) -> list[int]:
        return [self._rng.randrange(self.instance_count) for __ in range(count)]

    def pick_range(self, width: int) -> tuple[int, int]:
        lo = self._rng.randrange(self.low_ts, self.next_id - width)
        return lo, lo + width

    def pick_kind(self) -> str:
        return KINDS[self._rng.randrange(len(KINDS))]

    # -- expected answers -------------------------------------------------------

    def alerts(self) -> list[tuple]:
        return sorted((event_id, source, target, kind)
                      for event_id, (__, source, target, severity, kind)
                      in self.events.items()
                      if severity >= 4 and kind != "noop")

    def dashboard(self) -> list[tuple]:
        groups: dict[tuple, list[int]] = {}
        for __, __, target, severity, kind in self.events.values():
            key = (self.instances[target][1], kind)
            acc = groups.setdefault(key, [0, 0])
            acc[0] += 1
            acc[1] += severity
        return sorted((region, kind, n, sev)
                      for (region, kind), (n, sev) in groups.items())

    def per_source(self) -> dict[int, tuple[int, int]]:
        groups: dict[int, list[int]] = {}
        for __, source, __, severity, __ in self.events.values():
            acc = groups.setdefault(source, [0, 0])
            acc[0] += 1
            acc[1] += severity
        return {source: (n, sev) for source, (n, sev) in groups.items()}

    def top_sources(self) -> list[tuple]:
        ranked = sorted(self.per_source().items(),
                        key=lambda item: (-item[1][0], item[0]))
        return sorted((source, n, sev) for source, (n, sev) in ranked[:TOP_K])

    def range_rows(self, lo: int, hi: int) -> list[tuple]:
        return sorted((event_id, row[1], row[3])
                      for event_id in range(lo, hi)
                      if (row := self.events.get(event_id)) is not None)

    def region_totals(self, excluded_kind: str) -> list[tuple]:
        totals: dict[str, list[int]] = {}
        for region, kind, n, sev in self.dashboard():
            if kind != excluded_kind:
                acc = totals.setdefault(region, [0, 0])
                acc[0] += n
                acc[1] += sev
        return sorted((region, n, sev) for region, (n, sev) in totals.items())


class Ledger:
    """Generator and model of the ``accounts`` table of the oltp workload."""

    BRANCHES = 50

    def __init__(self, seed: int, accounts: int):
        self._rng = random.Random(seed)
        self.balances = {i: self._rng.randrange(0, 10_000)
                         for i in range(accounts)}

    def account_rows(self) -> list[tuple]:
        return [(i, i % self.BRANCHES, balance)
                for i, balance in self.balances.items()]

    def next_transfer(self) -> tuple[int, int]:
        """``(delta, account id)`` of the next single-row update."""
        return (self._rng.randrange(-500, 501),
                self._rng.randrange(len(self.balances)))

    def apply(self, delta: int, account: int) -> None:
        self.balances[account] += delta

    def branch_totals(self) -> list[tuple]:
        totals: dict[int, list[int]] = {}
        for account, balance in self.balances.items():
            acc = totals.setdefault(account % self.BRANCHES, [0, 0])
            acc[0] += 1
            acc[1] += balance
        return sorted((branch, n, total)
                      for branch, (n, total) in totals.items())


def digest(rows: list[tuple]) -> str:
    """A short fingerprint of generated inputs (for the seed self-check)."""
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
