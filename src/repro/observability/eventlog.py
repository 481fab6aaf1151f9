"""Event-log observability: record/replay pipeline counters.

The record/replay economics argument — simulate once, analyze N times —
is only checkable if both sides of the ledger are counted. One
:class:`EventLogCounters` instance threads through
:class:`~repro.eventlog.log.EventLogWriter` (recording side) and
:class:`~repro.eventlog.replay.ReplayFanout` (consuming side), so the
CLI can print, and the smoke test can assert, that a fan-out replayed
millions of events with **zero** simulations.
"""

from __future__ import annotations

from typing import Dict

#: Pipeline-wide counter names, all starting at zero.
COUNTER_NAMES = (
    # Recording side (bumped by EventLogWriter).
    "events_recorded", "chunks_written", "bytes_written", "logs_finalized",
    # Replay side (bumped by ReplayFanout / replay_log).
    "events_replayed", "chunks_replayed", "replays_completed",
    "analyses_run", "simulations", "disagreements",
)


class EventLogCounters:
    """Record/replay pipeline totals: a name -> count map with
    :meth:`bump`, :meth:`as_dict` and a one-line :meth:`stats_line`."""

    def __init__(self):
        self.totals: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}

    def bump(self, name: str, n: int = 1) -> None:
        if name not in self.totals:
            raise KeyError(f"unknown eventlog counter {name!r}")
        self.totals[name] += n

    def as_dict(self) -> Dict[str, int]:
        """JSON-safe export (CLI payload footers, test assertions)."""
        return dict(self.totals)

    def stats_line(self) -> str:
        """One-line pipeline summary, ParallelRunner.stats_line style."""
        t = self.totals
        line = (f"{t['events_replayed']} events replayed through "
                f"{t['analyses_run']} analyses "
                f"({t['simulations']} simulations)")
        extras = []
        if t["events_recorded"]:
            extras.append(f"{t['events_recorded']} recorded in "
                          f"{t['chunks_written']} chunks")
        if t["disagreements"]:
            extras.append(f"{t['disagreements']} disagreements")
        if extras:
            line += " (" + ", ".join(extras) + ")"
        return line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventLogCounters {self.stats_line()}>"
