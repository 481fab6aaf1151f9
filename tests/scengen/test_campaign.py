"""Campaign runner: journal resume, result cache, corpus archiving."""

import hashlib
import json

import pytest

from repro.errors import SuiteFailureError
from repro.harness import cli
from repro.harness.journal import RunJournal
from repro.harness.resultcache import ResultCache
from repro.machine.isa import Opcode
from repro.scengen import (
    QUICK_CONFIG,
    GeneratorConfig,
    generate,
    render,
    FuzzUnit,
    render_campaign,
    run_campaign,
    scenario_key,
)
from tests.scengen.test_oracle import perturb_compiled_when


def _has_atomic(ir):
    program, _ = render(ir)
    return any(i.op == Opcode.ATOMIC_ADD
               for i in program.iter_instructions())


class TestKeys:
    def test_key_depends_on_every_input(self):
        base = scenario_key(QUICK_CONFIG, 1, True)
        assert scenario_key(QUICK_CONFIG, 2, True) != base
        assert scenario_key(QUICK_CONFIG, 1, False) != base
        assert scenario_key(GeneratorConfig(sharing_ratio=0.9),
                            1, True) != base

    def test_key_is_stable(self):
        assert scenario_key(QUICK_CONFIG, 1, True) \
            == scenario_key(QUICK_CONFIG, 1, True)


class TestResume:
    def test_resume_re_simulates_nothing_journaled(self, tmp_path):
        path = str(tmp_path / "fuzz.jsonl")
        journal = RunJournal(path, resume=False)
        first = run_campaign(1, 8, quick=True, journal=journal)
        assert first.simulated == 8

        resumed = run_campaign(
            1, 8, quick=True, journal=RunJournal(path, resume=True))
        assert resumed.simulated == 0
        assert resumed.journal_hits == 8
        assert [p["seed"] for p in resumed.payloads] \
            == [p["seed"] for p in first.payloads]

    def test_partial_journal_resumes_the_tail(self, tmp_path):
        path = str(tmp_path / "fuzz.jsonl")
        run_campaign(1, 5, quick=True,
                     journal=RunJournal(path, resume=False))
        # Simulate a crash after 5 of 9 scenarios: same seeds, more.
        resumed = run_campaign(
            1, 9, quick=True, journal=RunJournal(path, resume=True))
        assert resumed.journal_hits == 5
        assert resumed.simulated == 4

    def test_cache_serves_a_second_campaign(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        first = run_campaign(1, 6, quick=True, cache=cache)
        second = run_campaign(1, 6, quick=True, cache=cache)
        assert first.simulated == 6
        assert second.simulated == 0
        assert second.cache_hits == 6

    def test_cache_hits_backfill_the_journal(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        run_campaign(1, 4, quick=True, cache=cache)
        path = str(tmp_path / "fuzz.jsonl")
        run_campaign(1, 4, quick=True, cache=cache,
                     journal=RunJournal(path, resume=False))
        resumed = run_campaign(
            1, 4, quick=True, journal=RunJournal(path, resume=True))
        assert resumed.journal_hits == 4


class TestParallelCampaign:
    def test_jobs_do_not_change_payloads(self):
        serial = run_campaign(1, 6, quick=True, jobs=1)
        pooled = run_campaign(1, 6, quick=True, jobs=2)
        assert pooled.simulated == 6
        assert pooled.payloads == serial.payloads

    def test_payload_digest_is_pinned(self, tmp_path):
        """The perfbench fuzz-campaign input: moving the campaign onto
        the shared runner must not change a single verdict."""
        result = run_campaign(1, 100, quick=True, cache=None,
                              journal=RunJournal(tmp_path / "j.jsonl"))
        blob = json.dumps(result.payloads, sort_keys=True, default=str)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "ca72f5c2376ac2933d925f6e4ed9828a425cb959061231e7b8031787eb825e5f")

    def test_failed_scenario_raises_after_the_batch(self, tmp_path):
        path = tmp_path / "fuzz.jsonl"
        with pytest.raises(SuiteFailureError) as excinfo:
            run_campaign(1, 3, quick=True, timeout=1e-6,
                         journal=RunJournal(path))
        failures = excinfo.value.failures
        assert [f.job for f in failures] == [FuzzUnit(s) for s in (1, 2, 3)]
        assert failures[0].kind == "timeout"
        assert "scenario seed 1" in failures[0].describe()


class TestCli:
    def test_fuzz_json_is_identical_for_any_jobs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["fuzz", "--seed", "5", "--count", "6", "--quick",
                "--no-cache"]
        assert cli.main(base + ["--jobs", "2", "--json", str(a)]) == 0
        assert cli.main(base + ["--jobs", "1", "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["scenarios"] == 6

    def test_failed_scenario_is_reported_by_seed(self, capsys):
        code = cli.main(["fuzz", "--seed", "5", "--count", "2", "--quick",
                         "--no-cache", "--jobs", "1", "--timeout", "1e-6"])
        assert code == 3
        err = capsys.readouterr().err
        assert "scenario seed 5" in err and "scenario seed 6" in err


class TestFailureHandling:
    def test_failures_are_reduced_and_archived(self, tmp_path):
        runner = perturb_compiled_when(_has_atomic)
        base = next(s for s in range(1, 200)
                    if _has_atomic(generate(s, QUICK_CONFIG)))
        corpus = tmp_path / "corpus"
        result = run_campaign(base, 1, quick=True, tier_runner=runner,
                              corpus_dir=str(corpus))
        assert len(result.disagreements) == 1
        payload = result.disagreements[0]
        assert payload["minimized"]["instructions"] <= 15
        archived = json.loads(
            (corpus / f"seed-{base:06d}.json").read_text())
        assert archived["seed"] == base
        assert archived["minimized"]["disassembly"]

    def test_planted_bug_never_poisons_journal_or_cache(self, tmp_path):
        runner = perturb_compiled_when(lambda ir: True)
        path = str(tmp_path / "fuzz.jsonl")
        cache = ResultCache(str(tmp_path / "cache"))
        buggy = run_campaign(1, 2, quick=True, tier_runner=runner,
                             journal=RunJournal(path, resume=False),
                             cache=cache, reduce_failing=False)
        assert len(buggy.disagreements) == 2
        clean = run_campaign(1, 2, quick=True,
                             journal=RunJournal(path, resume=True),
                             cache=cache)
        assert clean.journal_hits == 0 and clean.cache_hits == 0
        assert clean.simulated == 2
        assert not clean.disagreements

    def test_render_campaign_reports_disagreements(self):
        runner = perturb_compiled_when(lambda ir: True)
        result = run_campaign(1, 2, quick=True, tier_runner=runner,
                              reduce_failing=False)
        text = render_campaign(result)
        assert "2 disagreement(s)" in text
        assert "DISAGREEMENT seed 1" in text

    def test_render_campaign_clean(self):
        result = run_campaign(1, 3, quick=True)
        text = render_campaign(result)
        assert "0 disagreement(s)" in text
        assert "tier_parity_fasttrack" in text
