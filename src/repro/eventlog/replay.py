"""Replay one recorded simulation into N detectors — the paper's payoff.

Simulating a workload under full instrumentation is the expensive part;
every shared-data analysis only needs the event stream that simulation
produced. :func:`record_run` pays the simulation cost once, streaming
the access + synchronization stream into a chunked
:class:`~repro.eventlog.log.EventLogWriter`; :class:`ReplayFanout` then
feeds the finalized log to any number of detectors with **zero**
re-simulation — in parallel (one worker process per analysis, each
iterating the log chunk by chunk) or inline, with bit-identical merged
output either way.

Verdicts are canonical JSON-safe dicts (:func:`detector_verdict`), so
"replay equals live" is a plain ``==`` between a replayed verdict and
the verdict of a fresh full-instrumentation run
(:func:`live_run_verdict`) — the property the smoke test and the
replay-equivalence tests assert on every bundled workload.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional

from repro.analyses.djit import DjitDetector
from repro.analyses.eraser import EraserDetector
from repro.analyses.fasttrack.detector import FastTrackDetector
from repro.analyses.memtag import MemTagDetector
from repro.analyses.record import TraceRecorder, replay
from repro.chaos.invariants import (
    check_analysis_agreement,
    cross_analysis_disagreements,
)
from repro.dbr.engine import DBREngine
from repro.errors import HarnessError
from repro.eventlog.log import (
    DEFAULT_CHUNK_EVENTS,
    EventLogReader,
    EventLogWriter,
)
from repro.guestos.kernel import Kernel

_DEFAULT_BUDGET = 200_000_000

#: The registered replay consumers: name -> zero-arg detector factory.
#: All detectors run counter-free (no simulated cycle charging) so a
#: replayed verdict is comparable bit-for-bit with a live one.
ANALYSES: Dict[str, Callable[[], object]] = {
    "fasttrack": lambda: FastTrackDetector(block_size=8),
    "djit": lambda: DjitDetector(block_size=8),
    "eraser": lambda: EraserDetector(block_size=8),
    "memtag": lambda: MemTagDetector(block_size=8),
}

#: Per-analysis profile counters included in the verdict.
_PROFILE_FIELDS = {
    "fasttrack": ("reads", "writes", "same_epoch_hits",
                  "read_shared_transitions", "sync_ops", "metadata_pings"),
    "djit": ("reads", "writes", "sync_ops"),
    "eraser": ("accesses",),
    "memtag": ("accesses", "tag_collisions"),
}


def build_detector(name: str):
    factory = ANALYSES.get(name)
    if factory is None:
        raise HarnessError(
            f"unknown analysis {name!r}; registered: "
            f"{', '.join(sorted(ANALYSES))}")
    return factory()


def detector_verdict(name: str, detector) -> Dict:
    """Canonicalize a detector's findings into a JSON-safe dict.

    Contains only what the detector *concluded* (sorted report strings,
    flagged blocks, path-profile counters) — no run-side metadata — so
    live and replayed verdicts for the same event stream compare equal.
    """
    reports = getattr(detector, "races", None)
    if reports is None:
        reports = detector.reports
    return {
        "analysis": name,
        "reports": sorted(r.describe() for r in reports),
        "blocks": sorted({r.block for r in reports}),
        "report_count": len(reports),
        "profile": {field: getattr(detector, field)
                    for field in _PROFILE_FIELDS[name]},
    }


def record_run(program, path: str, *, seed: int = 0, quantum: int = 200,
               jitter: float = 0.0, compile_blocks: bool = True,
               chunk_events: int = DEFAULT_CHUNK_EVENTS, counters=None,
               max_instructions: int = _DEFAULT_BUDGET) -> Dict:
    """Simulate ``program`` once under full instrumentation, streaming
    every access + sync event into an event log at ``path``.

    The log is finalized atomically on success and aborted (destination
    untouched) if the run raises. Returns recording stats.
    """
    kernel = Kernel(seed=seed, quantum=quantum, jitter=jitter)
    kernel.create_process(program)
    engine = DBREngine(kernel, compile_blocks=compile_blocks)
    # Imported late: generic_tool pulls in the DBR/umbra stack, which
    # replay-only consumers (worker processes) never need.
    from repro.analyses.generic_tool import FullInstrumentationTool

    with EventLogWriter(path, chunk_events=chunk_events,
                        counters=counters) as writer:
        tool = FullInstrumentationTool(kernel, TraceRecorder(writer))
        engine.attach_tool(tool)
        kernel.run(max_instructions=max_instructions)
    # Stats read after close(): the final partial chunk and the trailer
    # only land during finalize.
    stats = {"path": str(path), "events": writer.events,
             "chunks": writer.chunks, "bytes": writer.bytes_written,
             "cycles": kernel.counter.total}
    if counters is not None:
        counters.bump("simulations")
    return stats


def live_run_verdict(program, name: str, *, seed: int = 0,
                     quantum: int = 200, jitter: float = 0.0,
                     compile_blocks: bool = True,
                     max_instructions: int = _DEFAULT_BUDGET) -> Dict:
    """Run one analysis live (full instrumentation, fresh simulation).

    The reference point replayed verdicts are diffed against.
    """
    detector = build_detector(name)
    kernel = Kernel(seed=seed, quantum=quantum, jitter=jitter)
    kernel.create_process(program)
    engine = DBREngine(kernel, compile_blocks=compile_blocks)
    from repro.analyses.generic_tool import FullInstrumentationTool

    engine.attach_tool(FullInstrumentationTool(kernel, detector))
    kernel.run(max_instructions=max_instructions)
    return detector_verdict(name, detector)


def replay_log(path: str, name: str, counters=None) -> Dict:
    """Replay one log through one analysis, chunk by chunk."""
    detector = build_detector(name)
    for _, entries in EventLogReader(path).iter_chunks():
        replay(entries, detector)
        if counters is not None:
            counters.bump("events_replayed", len(entries))
            counters.bump("chunks_replayed")
    if counters is not None:
        counters.bump("analyses_run")
    return detector_verdict(name, detector)


def _fanout_worker(path: str, name: str) -> Dict:
    """Top-level worker body (must be picklable for the process pool)."""
    return replay_log(path, name)


class ReplayFanout:
    """Replay one recorded log into N analyses, merged deterministically.

    ``jobs > 1`` runs one worker process per analysis (each streams the
    log's chunks independently — the per-chunk framing means no worker
    ever holds more than one chunk of decoded entries); ``jobs == 1``
    replays inline. Both paths produce the identical merged document:
    verdicts keyed by analysis in sorted-name order, plus the
    cross-analysis disagreement list. With ``check=True`` a non-empty
    disagreement list raises
    :class:`~repro.errors.InvariantViolationError` (the
    ``analysis_agreement`` replay invariant).
    """

    def __init__(self, analyses, *, jobs: int = 1, counters=None):
        self.analyses: List[str] = sorted(analyses)
        if not self.analyses:
            raise HarnessError("replay fan-out needs at least one analysis")
        for name in self.analyses:
            if name not in ANALYSES:
                raise HarnessError(
                    f"unknown analysis {name!r}; registered: "
                    f"{', '.join(sorted(ANALYSES))}")
        if jobs < 1:
            raise HarnessError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.counters = counters

    def run(self, path: str, *, check: bool = True) -> Dict:
        # Validate the whole log once up front (CRCs, trailer totals):
        # cheaper than failing identically in N workers, and it yields
        # the stat block for the merged document.
        stat = EventLogReader(path).stat()
        verdicts: Dict[str, Dict] = {}
        if self.jobs == 1 or len(self.analyses) == 1:
            for name in self.analyses:
                verdicts[name] = replay_log(path, name, self.counters)
        else:
            workers = min(self.jobs, len(self.analyses))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {name: pool.submit(_fanout_worker, path, name)
                           for name in self.analyses}
                for name in self.analyses:
                    verdicts[name] = futures[name].result()
            if self.counters is not None:
                # Workers cannot share the parent's counters; account
                # for their traffic here (each replayed the full log).
                per_analysis_events = stat["events"]
                per_analysis_chunks = stat["chunks"]
                for _ in self.analyses:
                    self.counters.bump("events_replayed",
                                       per_analysis_events)
                    self.counters.bump("chunks_replayed",
                                       per_analysis_chunks)
                    self.counters.bump("analyses_run")
        block_sets = {name: set(verdict["blocks"])
                      for name, verdict in verdicts.items()}
        disagreements = cross_analysis_disagreements(block_sets)
        if self.counters is not None:
            self.counters.bump("replays_completed")
            self.counters.bump("disagreements", len(disagreements))
        # Deliberately excludes ``jobs``: the merged document describes
        # the *result*, which must be bit-identical however many workers
        # produced it.
        merged = {
            "log": stat,
            "analyses": list(self.analyses),
            "verdicts": {name: verdicts[name] for name in self.analyses},
            "disagreements": disagreements,
        }
        if check and disagreements:
            check_analysis_agreement(block_sets)
        return merged
