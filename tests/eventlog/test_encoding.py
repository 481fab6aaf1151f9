"""Property tests for the binary trace-entry encoding.

Two entry sources: synthetic Hypothesis strategies covering the full
value space (large addresses, negative uids, zero-length barriers), and
the scengen generator, so every example is also a trace a real recorded
simulation could produce.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses.record import TraceRecorder
from repro.errors import EventLogError
from repro.eventlog.encoding import decode_entries, encode_entries

TIDS = st.integers(min_value=0, max_value=64)
ADDRS = st.integers(min_value=0, max_value=2 ** 40)
UIDS = st.integers(min_value=-1, max_value=2 ** 20)
LOCKS = st.integers(min_value=0, max_value=500)

access_entries = st.tuples(st.just("access"), TIDS, ADDRS, st.booleans(),
                           UIDS)
sync_entries = st.tuples(st.sampled_from(["acquire", "release"]), TIDS,
                         LOCKS)
thread_entries = st.tuples(st.sampled_from(["fork", "join"]), TIDS, TIDS)
barrier_entries = st.tuples(
    st.just("barrier"), st.integers(min_value=0, max_value=100),
    st.lists(TIDS, max_size=8).map(tuple))

entries_lists = st.lists(
    st.one_of(access_entries, sync_entries, thread_entries,
              barrier_entries),
    max_size=200)


class TestRoundTrip:
    @given(entries_lists)
    @settings(max_examples=300, deadline=None)
    def test_decode_is_entry_exact(self, entries):
        assert decode_entries(encode_entries(entries)) == entries

    @given(entries_lists)
    @settings(max_examples=300, deadline=None)
    def test_reencoding_is_byte_stable(self, entries):
        buf = encode_entries(entries)
        assert encode_entries(decode_entries(buf)) == buf

    def test_empty_payload(self):
        assert encode_entries([]) == b""
        assert decode_entries(b"") == []

    def test_access_deltas_compress_stride_patterns(self):
        # Same-thread stride-8 accesses: ~4 bytes each after the first.
        entries = [("access", 1, 4096 + 8 * i, False, 100 + i)
                   for i in range(100)]
        buf = encode_entries(entries)
        assert len(buf) < 100 * 6


class TestScengenTraces:
    @given(st.integers(min_value=0, max_value=2 ** 20))
    @settings(max_examples=30, deadline=None)
    def test_generated_scenario_traces_round_trip(self, seed):
        from repro.analyses.generic_tool import FullInstrumentationTool
        from repro.dbr.engine import DBREngine
        from repro.errors import ReproError
        from repro.guestos.kernel import Kernel
        from repro.scengen.generator import QUICK_CONFIG, generate
        from repro.scengen.scenario import render

        ir = generate(seed, QUICK_CONFIG)
        program, _ = render(ir)
        kernel = Kernel(seed=ir.sched_seed, quantum=ir.quantum,
                        jitter=ir.jitter)
        kernel.create_process(program)
        engine = DBREngine(kernel, compile_blocks=False)
        recorder = TraceRecorder()
        engine.attach_tool(FullInstrumentationTool(kernel, recorder))
        try:
            kernel.run(max_instructions=100_000)
        except ReproError:
            return  # runaway/faulting scenario: nothing to encode
        buf = encode_entries(recorder.trace)
        assert decode_entries(buf) == recorder.trace
        assert encode_entries(decode_entries(buf)) == buf


class TestRejection:
    def test_unknown_tag_rejected(self):
        with pytest.raises(EventLogError, match="unknown entry tag"):
            decode_entries(bytes([0xFF]))

    def test_truncated_varint_rejected(self):
        buf = encode_entries([("acquire", 1, 300)])
        with pytest.raises(EventLogError, match="truncated varint"):
            decode_entries(buf[:-1])

    def test_truncated_entry_rejected(self):
        buf = encode_entries([("access", 1, 4096, True, 7)])
        with pytest.raises(EventLogError):
            decode_entries(buf[:2])

    def test_non_minimal_varint_rejected(self):
        # 0x80 0x00 encodes 0 in two bytes; canonical form is one.
        with pytest.raises(EventLogError, match="non-minimal varint"):
            decode_entries(bytes([2, 0x80, 0x00, 0x01]))

    def test_unknown_kind_unencodable(self):
        with pytest.raises(EventLogError, match="unknown entry kind"):
            encode_entries([("wakeup", 1, 2)])

    def test_negative_sync_field_unencodable(self):
        with pytest.raises(EventLogError, match="negative varint"):
            encode_entries([("acquire", -1, 2)])
