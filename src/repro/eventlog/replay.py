"""Replay one recorded simulation into N detectors — the paper's payoff.

Simulating a workload under full instrumentation is the expensive part;
every shared-data analysis only needs the event stream that simulation
produced. :func:`record_run` pays the simulation cost once, streaming
the access + synchronization stream into a chunked
:class:`~repro.eventlog.log.EventLogWriter`; :class:`ReplayFanout` then
feeds the finalized log to any number of detectors with **zero**
re-simulation — inline or in worker processes, with bit-identical
merged output either way.

The fan-out splits its analyses into groups, one per worker. A group
makes one pass over the log (:func:`replay_group`): each chunk is
decoded once and fed to each detector of the group in turn. That pass
is also the validation — it checks the chunk CRCs and the trailer as
it reads and yields the log's stat block — so a fan-out decodes the
log once per group: once inline, and once per worker otherwise. A fan-out names each analysis at most once;
a duplicate name is refused.

Verdicts are canonical JSON-safe dicts (:func:`detector_verdict`), so
"replay equals live" is a plain ``==`` between a replayed verdict and
the verdict of a fresh full-instrumentation run
(:func:`live_run_verdict`) — the property the smoke test and the
replay-equivalence tests assert on every bundled workload.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Tuple

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

    try:
        with EventLogWriter(path, chunk_events=chunk_events,
                            counters=counters) as writer:
            engine.attach_tool(
                FullInstrumentationTool(kernel, TraceRecorder(writer)))
            kernel.run(max_instructions=max_instructions)
    finally:
        kernel.close()
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
    try:
        kernel.run(max_instructions=max_instructions)
    finally:
        kernel.close()
    return detector_verdict(name, detector)


def replay_group(path: str, names: List[str]) -> Tuple[List[Dict], Dict]:
    """Replay one log through fresh analyses in a single pass.

    Each chunk is decoded once and fed to one analysis after another
    (see :func:`~repro.analyses.record.replay`). The pass checks every chunk
    CRC and the trailer as it goes, so it is also the log's validation.
    Returns ``(verdicts, stat)``: one verdict per name, in order, and
    what :meth:`EventLogReader.stat` reports for the log.
    """
    detectors = [build_detector(name) for name in names]
    stat = EventLogReader(path).stat(
        lambda entries: replay(entries, *detectors))
    return ([detector_verdict(name, detector)
             for name, detector in zip(names, detectors)], stat)


def replay_log(path: str, name: str) -> Tuple[Dict, Dict]:
    """:func:`replay_group` for one analysis: ``(verdict, stat)``."""
    (verdict,), stat = replay_group(path, [name])
    return verdict, stat


class ReplayFanout:
    """Replay one recorded log into N analyses, merged deterministically.

    The sorted analyses are split round-robin into ``min(jobs, N)``
    groups, and each group makes one :func:`replay_group` pass. One
    group replays inline; more run one worker process per group, each
    streaming the log's chunks on its own (the per-chunk framing means
    no pass ever holds more than one chunk of decoded entries). So the
    log is decoded once per group, and ``jobs == 1`` decodes each chunk
    once. The passes are also the validation: a torn or corrupt log
    raises :class:`~repro.errors.EventLogError` with no document
    returned and no counter bumped. The merged ``log`` block comes from
    the first group's pass and equals :meth:`EventLogReader.stat`.

    Every grouping produces the identical merged document: verdicts
    keyed by analysis in sorted-name order, plus the cross-analysis
    disagreement list. The counters book per analysis, whatever the
    grouping: ``chunks_replayed`` and ``events_replayed`` count each
    chunk and event once per analysis that received it. With
    ``check=True`` a non-empty disagreement list raises
    :class:`~repro.errors.InvariantViolationError` (the
    ``analysis_agreement`` replay invariant). Unknown or duplicate
    analysis names raise :class:`~repro.errors.HarnessError`.
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
        duplicates = sorted({name for name in self.analyses
                             if self.analyses.count(name) > 1})
        if duplicates:
            raise HarnessError(
                f"duplicate analysis name(s) {', '.join(duplicates)}; "
                f"each analysis replays once")
        if jobs < 1:
            raise HarnessError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.counters = counters

    def run(self, path: str, *, check: bool = True) -> Dict:
        workers = min(self.jobs, len(self.analyses))
        groups = [self.analyses[i::workers] for i in range(workers)]
        if workers == 1:
            passes = [replay_group(path, groups[0])]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                passes = list(pool.map(replay_group, [path] * workers,
                                       groups))
        found = {name: verdict
                 for group, (group_verdicts, _) in zip(groups, passes)
                 for name, verdict in zip(group, group_verdicts)}
        verdicts = {name: found[name] for name in self.analyses}
        stat = passes[0][1]
        block_sets = {name: set(verdict["blocks"])
                      for name, verdict in verdicts.items()}
        disagreements = cross_analysis_disagreements(block_sets)
        if self.counters is not None:
            # Booked only now that every pass has completed, so a
            # damaged log leaves the counters untouched.
            runs = len(self.analyses)
            self.counters.bump("events_replayed", runs * stat["events"])
            self.counters.bump("chunks_replayed", runs * stat["chunks"])
            self.counters.bump("analyses_run", runs)
            self.counters.bump("replays_completed")
            self.counters.bump("disagreements", len(disagreements))
        # Deliberately excludes ``jobs``: the merged document describes
        # the *result*, which must be bit-identical however many workers
        # produced it.
        merged = {
            "log": stat,
            "analyses": list(self.analyses),
            "verdicts": verdicts,
            "disagreements": disagreements,
        }
        if check and disagreements:
            check_analysis_agreement(block_sets)
        return merged
