"""Metrics timelines and run-end snapshots.

A :class:`MetricsRecorder` rides the kernel's ``tick_hooks`` (host-side
callbacks after every scheduler quantum — the same mechanism the
invariant monitor uses) and, every ``cadence`` quanta, samples the hot
sharing-detector counters against the simulated cycle clock. Sampling
mutates no simulated state and charges no cycles, so a recorded run is
deterministically identical to an unrecorded one.

:func:`metrics_snapshot` is the run-end form: the complete
:class:`~repro.core.stats.AikidoStats` dict, the raw per-category cycle
breakdown, and the bucket attribution — the payload folded into suite
JSON and the result cache.
"""

from __future__ import annotations

from typing import Dict, List

from repro.observability.attribution import attribute_cycles

#: AikidoStats fields sampled into the timeline (the counters whose
#: *shape over time* matters for the overhead argument; everything else
#: is in the run-end snapshot).
TIMELINE_FIELDS = ("faults_handled", "instructions_instrumented",
                   "shared_accesses", "private_fastpath", "rejit_flushes")

DEFAULT_CADENCE = 25


class MetricsRecorder:
    """Samples detector counters on a quantum cadence.

    ``cadence`` is in scheduler quanta; 0 disables periodic sampling
    (only the final run-end sample is taken). When a tracer is attached
    the samples are mirrored as Chrome counter ("C") events, so the
    timeline renders as stacked counter tracks in Perfetto.
    """

    def __init__(self, counter, stats, *, cadence: int = DEFAULT_CADENCE,
                 tracer=None):
        self.counter = counter
        self.stats = stats
        self.cadence = cadence
        self.tracer = tracer
        self.samples: List[Dict] = []
        self._quanta = 0

    # ------------------------------------------------------------------
    # installation / sampling
    # ------------------------------------------------------------------
    def install(self, kernel) -> None:
        """Hook the kernel's per-quantum callback list."""
        if self.cadence <= 0:
            return

        def _tick():
            self._quanta += 1
            if self._quanta % self.cadence == 0:
                self.sample()

        kernel.tick_hooks.append(_tick)

    def sample(self) -> Dict:
        """Take one timeline sample now; returns (and stores) it."""
        record: Dict = {"cycle": self.counter.total,
                        "quantum": self._quanta}
        for field in TIMELINE_FIELDS:
            record[field] = getattr(self.stats, field)
        self.samples.append(record)
        if self.tracer is not None:
            self.tracer.counter_sample(
                "sd_counters",
                {field: record[field] for field in TIMELINE_FIELDS})
        return record

    def finalize(self) -> None:
        """Take the run-end sample (even when cadence sampling is off)."""
        self.sample()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def timeline(self) -> List[Dict]:
        """JSON-safe copy of the recorded samples."""
        return [dict(sample) for sample in self.samples]


def metrics_snapshot(stats, counter) -> Dict:
    """The run-end metrics payload (suite JSON / cache material).

    Every :class:`~repro.core.stats.AikidoStats` field appears under
    ``aikido_stats`` with its canonical name; ``cycle_attribution`` is
    the exact-sum bucket decomposition of ``cycle_breakdown``.
    """
    breakdown = counter.snapshot()
    return {
        "aikido_stats": stats.as_dict(),
        "cycle_breakdown": breakdown,
        "cycle_attribution": attribute_cycles(breakdown, counter.total),
        "total_cycles": counter.total,
    }
