"""Differential soundness: static races over-approximate dynamic races.

The static analyzer's contract is zero false negatives: any race
FastTrack observes dynamically must NOT be classified
``STATICALLY_RACE_FREE``. Three layers of evidence:

* every bundled workload, dynamically raced and checked uid-by-uid;
* a fixed-seed scengen campaign (200 scenarios through the full
  differential oracle, which includes the ``static_race_superset``
  check with site-level pair attribution);
* Hypothesis-driven scenario seeds through the same oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.runner import run_aikido_fasttrack
from repro.scengen.campaign import run_campaign
from repro.scengen.generator import QUICK_CONFIG, generate
from repro.scengen.oracle import check_scenario, failure_signature
from repro.scengen.scenario import render
from repro.staticanalysis.analysiscache import analysis_for
from repro.staticanalysis.races import RaceVerdict
from repro.workloads.parsec import benchmark_names, build_benchmark

SEEDS = (3, 7)


class TestBundledWorkloads:
    @pytest.mark.parametrize("name", tuple(benchmark_names()))
    def test_dynamic_races_are_never_statically_race_free(self, name):
        program = build_benchmark(name, threads=4, scale=0.5)
        races = analysis_for(program).races
        observed = 0
        for seed in SEEDS:
            result = run_aikido_fasttrack(
                build_benchmark(name, threads=4, scale=0.5),
                seed=seed, quantum=200, jitter=0.1)
            for race in result.races:
                uid = getattr(race, "instr_uid", -1)
                if uid is None or uid < 0:
                    continue
                observed += 1
                assert races.uid_verdict(uid) is not \
                    RaceVerdict.STATICALLY_RACE_FREE, (
                        f"{name}: dynamic race at uid {uid} "
                        f"({race.describe()}) was claimed race-free")
        if name == "canneal":
            # The bundled racy workload must actually exercise the check.
            assert observed > 0


class TestFixedSeedCampaign:
    def test_200_scenarios_have_zero_soundness_failures(self):
        result = run_campaign(42_000, 200, quick=True,
                              reduce_failing=False)
        failing = []
        for payload in result.payloads:
            verdict = payload["verdict"]
            for check in ("static_race_superset", "lint_clean"):
                entry = verdict["checks"].get(check, {})
                if not entry.get("skipped") and not entry.get("ok", True):
                    failing.append((payload["seed"], check,
                                    entry.get("detail", "")))
        assert not failing, failing
        assert not result.disagreements, [
            (p["seed"], failure_signature(p["verdict"]))
            for p in result.disagreements]


class TestHypothesisScenarios:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_oracle_soundness_checks_pass(self, seed):
        ir = generate(seed, QUICK_CONFIG)
        verdict = check_scenario(ir, quick=True)
        entry = verdict["checks"].get("static_race_superset", {})
        if entry.get("skipped"):
            return
        assert entry["ok"], entry.get("detail", "")

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_static_analysis_is_deterministic(self, seed):
        program, _ = render(generate(seed, QUICK_CONFIG))
        a = analysis_for(program).races
        program2, _ = render(generate(seed, QUICK_CONFIG))
        b = analysis_for(program2).races
        assert a.counts() == b.counts()
        assert {k: p.verdict for k, p in a.pairs.items()} \
            == {k: p.verdict for k, p in b.pairs.items()}
