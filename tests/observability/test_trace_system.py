"""End-to-end tracing through the full stack (ISSUE 4 tentpole).

Covers the acceptance criteria that need a real run: the emitted Chrome
trace validates, spans nest across layers (kernel fault dispatch wraps
the SD's sharing fault wraps the hypervisor's protection update), the
metrics timeline rides the scheduler cadence, and — the zero-overhead
contract — tracing changes no simulated outcome whatsoever.
"""

import pytest

from repro.core.config import AikidoConfig
from repro.harness.runner import (
    build_aikido_system,
    run_aikido_fasttrack,
    system_result,
)
from repro.observability.metrics import TIMELINE_FIELDS
from repro.observability.sink import TraceSink, load_chrome
from repro.workloads.parsec import build_benchmark

THREADS, SCALE, SEED, QUANTUM = 2, 0.1, 1, 150


def _program():
    return build_benchmark("freqmine", threads=THREADS, scale=SCALE)


@pytest.fixture(scope="module")
def traced_system():
    config = AikidoConfig(trace=True, metrics_cadence=10)
    system = build_aikido_system(_program(), seed=SEED, quantum=QUANTUM,
                                 jitter=0.0, config=config)
    system.run()
    return system


def test_run_leaves_no_open_spans(traced_system):
    tracer = traced_system.tracer
    assert len(tracer) > 0
    assert tracer.dropped == 0
    assert tracer.open_spans == 0


def test_spans_nest_across_layers(traced_system):
    """A discovery fault's causal chain shows up as nested spans:
    kernel fault_dispatch > SD sharing_fault > VMM set_protection."""
    events = traced_system.tracer.events
    depth = {}
    seen_chain = False
    for event in events:
        if event.ph == "B":
            stack = depth.setdefault(event.tid, [])
            stack.append(event.name)
            if stack[-3:] == ["fault_dispatch", "sharing_fault",
                              "set_protection"]:
                seen_chain = True
        elif event.ph == "E":
            assert depth[event.tid][-1] == event.name
            depth[event.tid].pop()
    assert seen_chain, "no nested fault_dispatch>sharing_fault>" \
                       "set_protection chain recorded"


def test_trace_covers_every_layer(traced_system):
    cats = {e.cat for e in traced_system.tracer.events}
    assert {"kernel", "hypervisor", "aikido_sd", "dbr", "tool",
            "metrics"} <= cats
    names = {e.name for e in traced_system.tracer.events}
    assert {"fault_dispatch", "sharing_fault", "set_protection",
            "hypercall", "fake_fault", "context_switch", "block_build",
            "shared_access", "sd_counters"} <= names


def test_every_shared_access_is_traced(traced_system):
    """The sharing detector binds the tracer into its hooks when they
    are built; every shared access still emits its instant."""
    instants = sum(1 for e in traced_system.tracer.events
                   if e.name == "shared_access")
    shared = system_result(traced_system).aikido_stats["shared_accesses"]
    assert shared > 0
    assert instants == shared


def test_chrome_trace_validates_after_roundtrip(traced_system, tmp_path):
    sink = TraceSink(traced_system.tracer)
    path = sink.write_chrome(tmp_path / "freqmine-trace.json")
    payload = load_chrome(path)   # raises TraceError on any violation
    assert len(payload["traceEvents"]) == len(traced_system.tracer) + 1


def test_metrics_timeline_rides_the_cadence(traced_system):
    timeline = traced_system.timeline()
    assert len(timeline) >= 2     # cadence samples plus the final one
    for sample in timeline:
        assert set(sample) == {"cycle", "quantum"} | set(TIMELINE_FIELDS)
    cycles = [sample["cycle"] for sample in timeline]
    assert cycles == sorted(cycles)
    # Counters are cumulative, so each series is monotone too.
    for field in TIMELINE_FIELDS:
        series = [sample[field] for sample in timeline]
        assert series == sorted(series)
    # The final (run-end) sample agrees with the finished stats.
    final = timeline[-1]
    for field in TIMELINE_FIELDS:
        assert final[field] == getattr(traced_system.stats, field)


def test_metrics_snapshot_attribution_is_exact(traced_system):
    snap = traced_system.metrics_snapshot()
    assert snap["total_cycles"] == traced_system.cycles
    assert snap["cycle_attribution"]["total"] == traced_system.cycles
    assert sum(snap["cycle_breakdown"].values()) == traced_system.cycles


def test_runresult_carries_the_timeline(traced_system):
    result = system_result(traced_system)
    assert result.timeline == traced_system.timeline()
    assert result.cycle_attribution["total"] == result.cycles


def test_tracing_off_is_bit_identical(traced_system):
    """The zero-overhead-when-off contract, strengthened: tracing ON
    must not perturb the simulation either. Every simulated outcome —
    cycles, per-category breakdown, stats, races — matches a run with
    observability fully disabled."""
    plain = run_aikido_fasttrack(_program(), seed=SEED, quantum=QUANTUM,
                                 jitter=0.0)
    traced = system_result(traced_system)
    assert plain.cycles == traced.cycles
    assert plain.cycle_breakdown == traced.cycle_breakdown
    assert plain.aikido_stats == traced.aikido_stats
    assert plain.run_stats == traced.run_stats
    assert sorted(r.describe() for r in plain.races) == \
        sorted(r.describe() for r in traced.races)
    # ...and the untraced system really had no observability attached.
    bare = build_aikido_system(_program(), seed=SEED, quantum=QUANTUM,
                               jitter=0.0)
    assert bare.tracer is None and bare.metrics is None
    assert bare.kernel.tracer is None
    assert bare.timeline() == []
