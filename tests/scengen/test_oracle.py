"""Differential-oracle behavior: clean scenarios pass, planted
divergence bugs are caught as structured verdicts."""

from repro.machine.isa import Opcode
from repro.scengen import (
    check_scenario,
    failure_signature,
    generate,
    render,
)
from repro.scengen import oracle
from repro.scengen.oracle import default_tier_runner


def _has_atomic(ir):
    program, _ = render(ir)
    return any(i.op == Opcode.ATOMIC_ADD
               for i in program.iter_instructions())


def perturb_compiled_when(trigger):
    """Tier runner with a planted compiled-tier divergence bug."""

    def runner(ir, mode, tier, budget):
        out = default_tier_runner(ir, mode, tier, budget)
        if (mode == "fasttrack" and tier == "compiled" and out[0] == "ok"
                and trigger(ir)):
            surface = dict(out[1])
            surface["cycles"] = surface["cycles"] + 1
            return ("ok", surface)
        return out

    return runner


class TestCleanScenarios:
    def test_seed_range_has_zero_disagreements(self):
        for seed in range(1, 15):
            verdict = check_scenario(generate(seed), quick=True)
            assert verdict["ok"], (seed, verdict)

    def test_verdict_shape(self):
        verdict = check_scenario(generate(1), quick=True)
        assert verdict["seed"] == 1
        assert verdict["outcome"] == "ok"
        for name in ("tier_parity_fasttrack",
                     "tier_parity_fasttrack_superblock",
                     "tier_parity_aikido",
                     "tier_parity_aikido_superblock",
                     "schedule_replay", "record_replay_fidelity",
                     "fasttrack_djit_agreement", "eraser_determinism",
                     "eventlog_roundtrip", "cross_analysis_agreement",
                     "classifier_soundness", "aikido_subset"):
            assert name in verdict["checks"], name

    def test_chaotic_scenario_checks_chaos_replay(self):
        seed = next(s for s in range(1, 100)
                    if generate(s).chaos_seed is not None)
        verdict = check_scenario(generate(seed), quick=True)
        assert verdict["ok"], verdict
        assert "chaos_replay" in verdict["checks"]
        assert verdict["checks"]["aikido_subset"].get("skipped")

    def test_verdicts_are_deterministic(self):
        ir = generate(3)
        assert check_scenario(ir, quick=True) \
            == check_scenario(ir, quick=True)

    def test_eraser_is_replayed_twice_per_scenario(self, monkeypatch):
        """Determinism needs two replays; the agreement check reuses
        the second instead of paying for a third."""
        built = []

        class CountingEraser(oracle.EraserDetector):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(oracle, "EraserDetector", CountingEraser)
        verdict = check_scenario(generate(1), quick=True)
        assert not verdict["checks"]["eraser_determinism"].get("skipped")
        assert len(built) == 2


class TestPlantedBugs:
    def test_compiled_tier_divergence_is_caught(self):
        runner = perturb_compiled_when(_has_atomic)
        seed = next(s for s in range(1, 100)
                    if _has_atomic(generate(s)))
        verdict = check_scenario(generate(seed), quick=True,
                                 tier_runner=runner)
        assert not verdict["ok"]
        assert failure_signature(verdict) == ("tier_parity_fasttrack",)
        detail = verdict["checks"]["tier_parity_fasttrack"]["detail"]
        assert "cycles" in detail

    def test_replay_divergence_is_caught(self):
        calls = {"n": 0}

        def flappy(ir, mode, tier, budget):
            out = default_tier_runner(ir, mode, tier, budget)
            calls["n"] += 1
            if out[0] == "ok":
                surface = dict(out[1])
                surface["cycles"] = surface["cycles"] + calls["n"]
                return ("ok", surface)
            return out

        verdict = check_scenario(generate(1), quick=True,
                                 tier_runner=flappy)
        assert "schedule_replay" in failure_signature(verdict)
