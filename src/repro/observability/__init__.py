"""Observability: tracing, metrics timelines, and cycle attribution.

The measurement substrate for the repro's overhead argument. See
``tracer`` (structured spans/instants/counters on the simulated cycle
clock), ``sink`` (JSONL + Chrome ``trace_event`` serialization),
``metrics`` (quantum-cadence counter timelines and run-end snapshots),
and ``attribution`` (the app / discovery-fault / re-JIT / tool-hook /
kernel-emulation cycle decomposition with an exact-sum guarantee).
"""

from repro.observability.attribution import (BUCKETS, CATEGORY_BUCKETS,
                                             attribute_cycles,
                                             attribution_fractions,
                                             overhead_cycles)
from repro.observability.eventlog import EventLogCounters
from repro.observability.metrics import (MetricsRecorder, TIMELINE_FIELDS,
                                         metrics_snapshot)
from repro.observability.sink import TraceSink, load_chrome, validate_chrome
from repro.observability.tracer import TraceEvent, Tracer

__all__ = [
    "BUCKETS", "CATEGORY_BUCKETS", "attribute_cycles",
    "attribution_fractions", "overhead_cycles",
    "EventLogCounters",
    "MetricsRecorder", "TIMELINE_FIELDS", "metrics_snapshot",
    "TraceSink", "load_chrome", "validate_chrome",
    "TraceEvent", "Tracer",
]
