"""Property tests for the binary trace-entry encoding.

Two entry sources: synthetic Hypothesis strategies covering the full
value space (large addresses, negative uids, zero-length barriers), and
the scengen generator, so every example is also a trace a real recorded
simulation could produce.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses.record import TraceRecorder
from repro.errors import EventLogError
from repro.eventlog.encoding import decode_entries, encode_entries

TIDS = st.integers(min_value=0, max_value=64)
ADDRS = st.integers(min_value=0, max_value=2 ** 64 - 1)
UIDS = st.integers(min_value=-1, max_value=2 ** 64 - 1)
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


#: Zigzag values on each side of the one-/two-/three-byte varint limits.
BOUNDARY_ZIGZAGS = (0x7F, 0x80, 0x3FFF, 0x4000)
ACCESS_FIELDS = (1, 2, 4)  # tid, addr, instr_uid in an access entry


def _unzigzag(z):
    return z >> 1 if z % 2 == 0 else -(z >> 1) - 1


def _varint(value):
    out = bytearray()
    while True:
        out.append(value & 0x7F | (0x80 if value > 0x7F else 0))
        value >>= 7
        if not value:
            return bytes(out)


class TestAccessFieldBoundaries:
    @pytest.mark.parametrize("field", ACCESS_FIELDS)
    @pytest.mark.parametrize("z", BOUNDARY_ZIGZAGS)
    def test_boundary_zigzag_round_trips(self, field, z):
        """Each access field, delta-coded against a base entry, at the
        varint length boundaries — far from the buffer end (inline fast
        path) and as the final entry (generic varint path)."""
        base = ["access", 5, 1 << 20, False, 1000]
        entry = list(base)
        entry[field] += _unzigzag(z)
        filler = [("access", 5, 1 << 20, False, 1000)] * 20
        for entries in ([tuple(base), tuple(entry)] + filler,
                        filler + [tuple(base), tuple(entry)]):
            buf = encode_entries(entries)
            assert decode_entries(buf) == entries
            assert encode_entries(decode_entries(buf)) == buf
        deltas = [0, 0, 0]
        deltas[ACCESS_FIELDS.index(field)] = z
        second = bytes([0]) + b"".join(_varint(d) for d in deltas)
        assert encode_entries([tuple(base), tuple(entry)]).endswith(second)

    @pytest.mark.parametrize("field", range(3))
    @pytest.mark.parametrize("padding", [0, 40])
    def test_non_minimal_access_varint_rejected(self, field, padding):
        """0x80 0x00 in any access field is rejected, whether the entry
        is decoded inline (``padding`` entries follow) or at the end."""
        fields = [b"\x00", b"\x00", b"\x00"]
        fields[field] = b"\x80\x00"
        buf = bytes([1]) + b"".join(fields) + bytes(4 * padding)
        with pytest.raises(EventLogError, match="non-minimal varint"):
            decode_entries(buf)

    def test_every_prefix_of_long_delta_accesses_is_rejected(self):
        """Cutting a buffer of long-delta accesses anywhere but an entry
        boundary raises EventLogError (never IndexError, never a prefix);
        cutting at a boundary decodes exactly the entries before it."""
        entries = []
        for i in range(12):
            entries.append(("access", i % 3, (i * 0x9E3779B97F4A7C15)
                            % 2 ** 64, i % 2 == 1,
                            -1 if i % 4 == 0 else i << 40))
            entries.append(("access", i % 3, 4096 + i, False, 7))
        boundaries = {0: 0}
        for count in range(1, len(entries) + 1):
            boundaries[len(encode_entries(entries[:count]))] = count
        buf = encode_entries(entries)
        assert len(buf) in boundaries and len(buf) > 200
        for cut in range(len(buf)):
            if cut in boundaries:
                assert decode_entries(buf[:cut]) == \
                    entries[:boundaries[cut]]
            else:
                with pytest.raises(EventLogError):
                    decode_entries(buf[:cut])


class TestPinnedLog:
    #: sha256 of the AIKLOG file for canneal, 2 threads, scale 0.05,
    #: seed 2 (record_run defaults otherwise). Any codec or framing
    #: change that moves a byte of a recorded log breaks this pin.
    CANNEAL_SHA256 = ("c90c31de66da37820fc76c39a63b1412"
                      "9ff7496a5892fd13473d109587faf194")

    def test_recorded_log_bytes_are_pinned(self, tmp_path):
        from repro.eventlog.replay import record_run
        from repro.workloads.parsec import build_benchmark

        path = tmp_path / "canneal.aiklog"
        record_run(build_benchmark("canneal", threads=2, scale=0.05),
                   str(path), seed=2)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            self.CANNEAL_SHA256


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
