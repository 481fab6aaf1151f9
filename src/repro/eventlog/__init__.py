"""Persistent event log + multi-analysis replay (record once, analyze everywhere).

The in-memory traces of :mod:`repro.analyses.record` feed one detector in
one process. This package makes the recorded stream a durable artifact:

* :mod:`repro.eventlog.encoding` — compact binary entry encoding
  (varint deltas for tid/addr/uid, one tag byte per entry);
* :mod:`repro.eventlog.log` — chunked on-disk framing with per-chunk
  CRCs, an append-only writer with atomic finalize, and a lazy reader
  that rejects torn or corrupt logs;
* :mod:`repro.eventlog.replay` — :class:`ReplayFanout`, replaying one
  recorded simulation into N detectors in parallel with zero
  re-simulation;
* :mod:`repro.eventlog.cli` — the ``aikido-repro record`` / ``replay``
  command-line verbs.
"""

from repro.eventlog.encoding import decode_entries, encode_entries
from repro.eventlog.log import EventLogReader, EventLogWriter
from repro.eventlog.replay import (
    ANALYSES,
    ReplayFanout,
    detector_verdict,
    live_run_verdict,
    record_run,
    replay_log,
)

__all__ = [
    "ANALYSES",
    "EventLogReader",
    "EventLogWriter",
    "ReplayFanout",
    "decode_entries",
    "detector_verdict",
    "encode_entries",
    "live_run_verdict",
    "record_run",
    "replay_log",
]
