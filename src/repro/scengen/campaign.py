"""Resumable fuzz campaigns over generated scenarios.

A campaign is a seed range: scenario ``i`` is ``generate(base_seed + i,
config)``, checked by the differential oracle. Each seed is one
:class:`FuzzUnit` run by the suite harness's
:class:`~repro.harness.parallel.ParallelRunner` — inline by default, or
over a process pool with ``jobs`` — so verdicts are journaled
(``--journal``/``--resume``, a
:class:`~repro.harness.journal.RunJournal`) and cached
(:class:`~repro.harness.resultcache.ResultCache`) exactly like suite
runs. Keys fold in the generator config, the oracle version and the
harness fingerprint (package version + cost model), so stale verdicts
never satisfy a lookup. A killed campaign resumed with ``--resume``
re-simulates nothing that was already journaled.

Failing scenarios are automatically shrunk by the reducer and, when a
corpus directory is given, archived as one JSON file per seed::

    corpus/
      seed-000017.json     # {"seed", "ir", "verdict", "minimized": {
                           #   "ir", "instructions", "disassembly",
                           #   "attempts"}}
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.harness.journal import RunJournal
from repro.harness.parallel import JobFailure, ParallelRunner, fingerprint
from repro.harness.resultcache import ResultCache
from repro.scengen.generator import (
    DEFAULT_CONFIG,
    QUICK_CONFIG,
    GeneratorConfig,
    generate,
)
from repro.scengen.oracle import (
    TierRunner,
    check_scenario,
    failure_signature,
)
from repro.scengen.reducer import reduce_scenario
from repro.scengen.scenario import ScenarioIR, describe, render

#: Bumped whenever the oracle's checks change meaning, invalidating
#: journaled/cached verdicts from older code.
#: 2: added static_race_superset + lint_clean checks.
#: 3: added eventlog_roundtrip + cross_analysis_agreement checks.
#: 4: added superblock-tier parity checks (fasttrack + aikido).
ORACLE_VERSION = 4


def scenario_key(config: GeneratorConfig, seed: int, quick: bool,
                 fp: Optional[str] = None) -> str:
    """Stable journal/cache key for one scenario's verdict."""
    basis = {
        "kind": "scengen-verdict",
        "oracle": ORACLE_VERSION,
        "config": config.canonical(),
        "seed": seed,
        "quick": quick,
        "fingerprint": fp if fp is not None else fingerprint(),
    }
    blob = json.dumps(basis, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class CampaignResult:
    """Everything one campaign invocation produced."""

    payloads: List[Dict] = field(default_factory=list)
    simulated: int = 0
    journal_hits: int = 0
    cache_hits: int = 0

    @property
    def disagreements(self) -> List[Dict]:
        return [p for p in self.payloads if not p["verdict"]["ok"]]

    def check_totals(self) -> Dict[str, Dict[str, int]]:
        totals: Dict[str, Dict[str, int]] = {}
        for payload in self.payloads:
            for name, check in payload["verdict"]["checks"].items():
                bucket = totals.setdefault(
                    name, {"pass": 0, "fail": 0, "skipped": 0})
                if check.get("skipped"):
                    bucket["skipped"] += 1
                elif check["ok"]:
                    bucket["pass"] += 1
                else:
                    bucket["fail"] += 1
        return totals

    def stats_line(self) -> str:
        return (f"{self.simulated} simulated, "
                f"{self.journal_hits} replayed from journal, "
                f"{self.cache_hits} cache hits, "
                f"{len(self.disagreements)} disagreement(s)")


def _minimize(ir: ScenarioIR, verdict: Dict, quick: bool,
              tier_runner: Optional[TierRunner]) -> Dict:
    target = set(failure_signature(verdict))

    def predicate(candidate: ScenarioIR) -> bool:
        seen = set(failure_signature(
            check_scenario(candidate, quick=quick,
                           tier_runner=tier_runner)))
        return target <= seen

    reduction = reduce_scenario(ir, predicate)
    _, info = render(reduction.minimized)
    return {
        "ir": reduction.minimized.to_dict(),
        "instructions": info.instruction_count,
        "disassembly": describe(reduction.minimized),
        "attempts": reduction.attempts,
    }


def scenario_payload(seed: int, config: GeneratorConfig, *,
                     quick: bool = True, reduce_failing: bool = True,
                     tier_runner: Optional[TierRunner] = None) -> Dict:
    """Generate + check one scenario, returning the journal payload."""
    ir = generate(seed, config)
    verdict = check_scenario(ir, quick=quick, tier_runner=tier_runner)
    payload = {"seed": seed, "ir": ir.to_dict(), "verdict": verdict}
    if not verdict["ok"] and reduce_failing:
        payload["minimized"] = _minimize(ir, verdict, quick, tier_runner)
    return payload


@dataclass(frozen=True)
class FuzzUnit:
    """One scenario seed, in the unit contract :class:`ParallelRunner` runs.

    ``tier_runner`` (tests plant divergence bugs there) is a closure, so
    a unit carrying one only ever runs inline.
    """

    seed: int
    quick: bool = True
    config: GeneratorConfig = QUICK_CONFIG
    reduce_failing: bool = True
    tier_runner: Optional[TierRunner] = field(default=None, compare=False)

    def key(self, fp: Optional[str] = None) -> str:
        return scenario_key(self.config, self.seed, self.quick, fp)

    def execute(self) -> Dict:
        return scenario_payload(self.seed, self.config, quick=self.quick,
                                reduce_failing=self.reduce_failing,
                                tier_runner=self.tier_runner)

    def decode(self, payload: Dict) -> Dict:
        return payload

    def describe(self) -> str:
        return f"scenario seed {self.seed}"


def run_campaign(base_seed: int, count: int, *,
                 config: Optional[GeneratorConfig] = None,
                 quick: bool = True,
                 journal: Optional[RunJournal] = None,
                 cache: Optional[ResultCache] = None,
                 corpus_dir: Optional[str] = None,
                 reduce_failing: bool = True,
                 tier_runner: Optional[TierRunner] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 jobs: Optional[int] = 1,
                 timeout: Optional[float] = None,
                 retries: int = 0) -> CampaignResult:
    """Check ``count`` scenarios starting at ``base_seed``.

    ``jobs``, ``timeout`` and ``retries`` configure the
    :class:`ParallelRunner` (``jobs=1``, the default, runs inline). A
    scenario that raises instead of producing a verdict makes the call
    raise :class:`~repro.errors.SuiteFailureError` once every other
    scenario has settled (and been journaled).

    ``tier_runner`` overrides the oracle's tier execution (tests plant
    divergence bugs there); journal and cache are bypassed in that case
    so a planted bug can never poison real verdicts.
    """
    config = config or (QUICK_CONFIG if quick else DEFAULT_CONFIG)
    if tier_runner is not None:
        journal = cache = None
        jobs = 1
    runner = ParallelRunner(jobs, cache, timeout=timeout, retries=retries,
                            journal=journal)
    units = [FuzzUnit(seed, quick, config, reduce_failing, tier_runner)
             for seed in range(base_seed, base_seed + count)]

    def report(unit: FuzzUnit, entry) -> None:
        if isinstance(entry, JobFailure):
            status = f"FAILED [{entry.kind}] {entry.error_type}"
        else:
            verdict = entry["verdict"]
            status = (f"{'ok' if verdict['ok'] else 'DISAGREEMENT'} "
                      f"[{verdict['outcome']}]")
        progress(f"scenario {unit.seed}: {status}")

    payloads = runner.run(units, progress=report if progress else None)
    result = CampaignResult(payloads, runner.simulations,
                            runner.journal_hits, runner.cache_hits)
    if corpus_dir:
        corpus = Path(corpus_dir)
        corpus.mkdir(parents=True, exist_ok=True)
        for payload in result.disagreements:
            path = corpus / f"seed-{payload['seed']:06d}.json"
            path.write_text(json.dumps(payload, indent=2,
                                       sort_keys=True) + "\n")
    return result


def campaign_to_dict(result: CampaignResult) -> Dict:
    """The campaign's ``--json`` archive (identical for any ``jobs``)."""
    return {"scenarios": len(result.payloads),
            "checks": result.check_totals(),
            "disagreements": [p["seed"] for p in result.disagreements],
            "payloads": result.payloads}


def render_campaign(result: CampaignResult) -> str:
    """Human-readable campaign summary."""
    lines = [f"fuzz campaign: {len(result.payloads)} scenario(s), "
             f"{len(result.disagreements)} disagreement(s)"]
    lines.append(f"  {'check':<26s} {'pass':>6s} {'fail':>6s} "
                 f"{'skip':>6s}")
    for name, bucket in sorted(result.check_totals().items()):
        lines.append(f"  {name:<26s} {bucket['pass']:>6d} "
                     f"{bucket['fail']:>6d} {bucket['skipped']:>6d}")
    for payload in result.disagreements:
        verdict = payload["verdict"]
        failing = ", ".join(failure_signature(verdict)) or "(outcome)"
        lines.append(f"  DISAGREEMENT seed {payload['seed']}: {failing}")
        minimized = payload.get("minimized")
        if minimized:
            lines.append(f"    minimized to "
                         f"{minimized['instructions']} instructions "
                         f"({minimized['attempts']} reduction attempts)")
    return "\n".join(lines)
