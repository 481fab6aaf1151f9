"""Replay-equivalence tests: record once, analyze everywhere.

The load-bearing property of the whole pipeline: replaying a recorded
log through a detector yields a verdict **bit-identical** to running
that detector live under full instrumentation — on every bundled
workload, for every registered analysis, however many worker processes
do the replaying.
"""

import pytest

import repro.eventlog.log as eventlog_log
from repro.chaos.invariants import cross_analysis_disagreements
from repro.errors import EventLogError, HarnessError, InvariantViolationError
from repro.eventlog.cli import main as eventlog_main
from repro.eventlog.log import EventLogReader, EventLogWriter
from repro.eventlog.replay import (
    ANALYSES,
    ReplayFanout,
    detector_verdict,
    live_run_verdict,
    record_run,
    replay_log,
)
from repro.observability.eventlog import EventLogCounters
from repro.workloads.parsec import benchmark_names, build_benchmark

THREADS = 2
SCALE = 0.05
RUN = dict(seed=11, quantum=120, jitter=0.0, compile_blocks=False)


def record_benchmark(tmp_path, name):
    path = str(tmp_path / f"{name}.aiklog")
    program = build_benchmark(name, threads=THREADS, scale=SCALE)
    stats = record_run(program, path, seed=RUN["seed"],
                       quantum=RUN["quantum"], jitter=RUN["jitter"],
                       compile_blocks=RUN["compile_blocks"],
                       chunk_events=256)
    return path, stats


class TestReplayEquivalence:
    @pytest.mark.parametrize("workload", benchmark_names())
    def test_replay_matches_live_on_every_workload(self, tmp_path,
                                                   workload):
        """One recorded run, replayed through all four detectors, is
        bit-identical to four fresh live runs — on all ten workloads."""
        path, stats = record_benchmark(tmp_path, workload)
        assert stats["events"] > 0
        for analysis in sorted(ANALYSES):
            live = live_run_verdict(
                build_benchmark(workload, threads=THREADS, scale=SCALE),
                analysis, seed=RUN["seed"], quantum=RUN["quantum"],
                jitter=RUN["jitter"],
                compile_blocks=RUN["compile_blocks"])
            replayed, _ = replay_log(path, analysis)
            assert replayed == live, (workload, analysis)

    def test_memtag_blocks_subset_of_eraser_on_benchmarks(self, tmp_path):
        for workload in ("canneal", "streamcluster", "x264"):
            path, _ = record_benchmark(tmp_path, workload)
            eraser, _ = replay_log(path, "eraser")
            memtag, _ = replay_log(path, "memtag")
            assert set(memtag["blocks"]) <= set(eraser["blocks"]), workload


class TestFanout:
    def test_parallel_merged_equals_inline_merged(self, tmp_path):
        path, _ = record_benchmark(tmp_path, "canneal")
        inline = ReplayFanout(ANALYSES, jobs=1).run(path)
        parallel = ReplayFanout(ANALYSES, jobs=2).run(path)
        assert parallel == inline

    def test_fanout_reports_zero_disagreements_on_clean_pipeline(
            self, tmp_path):
        path, _ = record_benchmark(tmp_path, "blackscholes")
        merged = ReplayFanout(ANALYSES, jobs=1).run(path)
        assert merged["disagreements"] == []
        assert sorted(merged["verdicts"]) == sorted(ANALYSES)

    def test_analysis_order_is_canonical(self, tmp_path):
        path, _ = record_benchmark(tmp_path, "blackscholes")
        a = ReplayFanout(["memtag", "fasttrack"]).run(path)
        b = ReplayFanout(["fasttrack", "memtag"]).run(path)
        assert a == b
        assert a["analyses"] == ["fasttrack", "memtag"]

    def test_unknown_analysis_rejected(self):
        with pytest.raises(HarnessError, match="unknown analysis"):
            ReplayFanout(["fasttrack", "tsan"])

    def test_empty_analysis_list_rejected(self):
        with pytest.raises(HarnessError, match="at least one analysis"):
            ReplayFanout([])

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(HarnessError, match="jobs"):
            ReplayFanout(["fasttrack"], jobs=0)

    def test_duplicate_analysis_rejected(self):
        with pytest.raises(HarnessError, match="duplicate analysis"):
            ReplayFanout(["fasttrack", "djit", "fasttrack"])

    def test_cli_reports_duplicate_analysis_as_exit_2(self, tmp_path,
                                                      capsys):
        path, _ = record_benchmark(tmp_path, "blackscholes")
        status = eventlog_main(["replay", "--log", path,
                                "--analyses", "fasttrack,fasttrack"])
        assert status == 2
        assert "duplicate analysis" in capsys.readouterr().err


def _damage(path, how):
    data = bytearray(open(path, "rb").read())
    if how == "torn":
        del data[-30:]  # the trailer and the end of the last chunk
    else:
        data[len(data) // 2] ^= 0x10  # one bit inside a chunk payload
    with open(path, "wb") as handle:
        handle.write(bytes(data))


class TestFanoutValidation:
    """The replay passes are the log's only validation."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("how", ["torn", "bitflip"])
    def test_damaged_log_raises_and_counts_nothing(self, tmp_path, jobs,
                                                   how):
        path, _ = record_benchmark(tmp_path, "canneal")
        _damage(path, how)
        counters = EventLogCounters()
        before = counters.as_dict()
        merged = None
        with pytest.raises(EventLogError):
            merged = ReplayFanout(ANALYSES, jobs=jobs,
                                  counters=counters).run(path)
        assert merged is None
        assert counters.as_dict() == before

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_log_block_equals_reader_stat(self, tmp_path, jobs):
        path, stats = record_benchmark(tmp_path, "canneal")
        merged = ReplayFanout(ANALYSES, jobs=jobs).run(path)
        assert merged["log"] == EventLogReader(path).stat()
        assert merged["log"]["chunks"] == stats["chunks"] > 1

    def test_fanout_decodes_each_chunk_once_per_analysis(self, tmp_path,
                                                          monkeypatch):
        path, stats = record_benchmark(tmp_path, "canneal")
        calls = []
        decode = eventlog_log.decode_entries

        def counting_decode(buf):
            calls.append(len(buf))
            return decode(buf)

        monkeypatch.setattr(eventlog_log, "decode_entries", counting_decode)
        counters = EventLogCounters()
        ReplayFanout(ANALYSES, jobs=1, counters=counters).run(path)
        assert len(calls) == len(ANALYSES) * stats["chunks"]
        totals = counters.as_dict()
        assert totals["chunks_replayed"] == len(calls)
        assert totals["events_replayed"] == \
            len(ANALYSES) * stats["events"]
        assert totals["analyses_run"] == len(ANALYSES)


class TestDisagreementCheck:
    def planted_log(self, tmp_path):
        """A hand-written trace with one unordered write pair: every
        analysis flags block 512 (4096 >> 3), so the agreement invariant
        holds. The disagreement paths are exercised directly on doctored
        block sets below."""
        path = str(tmp_path / "planted.aiklog")
        with EventLogWriter(path) as writer:
            writer.extend([
                ("fork", 1, 2),
                ("access", 1, 4096, True, 1),
                ("access", 2, 4096, True, 2),
                ("join", 1, 2),
            ])
        return path

    def test_racy_trace_flags_same_blocks_everywhere(self, tmp_path):
        path = self.planted_log(tmp_path)
        merged = ReplayFanout(ANALYSES, jobs=1).run(path)
        assert merged["verdicts"]["fasttrack"]["blocks"] \
            == merged["verdicts"]["djit"]["blocks"]

    def test_planted_disagreement_raises(self):
        block_sets = {"fasttrack": {4096}, "djit": set()}
        with pytest.raises(InvariantViolationError,
                           match="analysis_agreement"):
            from repro.chaos.invariants import check_analysis_agreement

            check_analysis_agreement(block_sets)

    def test_memtag_excess_is_a_disagreement(self):
        disagreements = cross_analysis_disagreements(
            {"eraser": set(), "memtag": {4096}})
        assert disagreements
        assert any("memtag" in d for d in disagreements)

    def test_agreeing_sets_are_silent(self):
        assert cross_analysis_disagreements(
            {"fasttrack": {1, 2}, "djit": {1, 2},
             "eraser": {1, 2, 3}, "memtag": {2}}) == []


class TestVerdictShape:
    def test_verdict_is_json_safe_and_sorted(self, tmp_path):
        import json

        path, _ = record_benchmark(tmp_path, "canneal")
        verdict, _ = replay_log(path, "fasttrack")
        json.dumps(verdict)  # no sets, no objects
        assert verdict["reports"] == sorted(verdict["reports"])
        assert verdict["blocks"] == sorted(verdict["blocks"])
        assert verdict["analysis"] == "fasttrack"

    def test_detector_verdict_counts_match(self):
        detector = ANALYSES["eraser"]()
        verdict = detector_verdict("eraser", detector)
        assert verdict["report_count"] == 0
        assert verdict["profile"] == {"accesses": 0}
