"""Suite-grid campaigns: benchmarks x seeds x chaos seeds as harness jobs.

A :class:`CampaignSpec` is plain data describing one grid of the §5
evaluation. :meth:`CampaignSpec.jobs` expands it into harness
:class:`~repro.harness.parallel.Job`\\ s in a canonical order, and
:func:`campaign_report` runs them on a
:class:`~repro.harness.parallel.ParallelRunner` and folds the results
into one JSON-able report. Every field of the report derives from the
spec, the cost-model fingerprint and the deterministic runs — never from
worker count, timing, or whether a result came from the journal or the
cache — so any two executions of the same campaign dump byte-identical
reports.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chaos.plan import ChaosPlan
from repro.core.config import AikidoConfig
from repro.errors import HarnessError
from repro.harness.parallel import (Job, JobFailure, ParallelRunner,
                                    fingerprint, result_to_dict)
from repro.workloads.parsec import get_benchmark


@dataclass(frozen=True)
class CampaignSpec:
    """One suite grid: a :class:`Job` per ``benchmark x seed x chaos
    seed`` cell in ``mode``.

    A ``chaos_seeds`` entry of ``None`` is a chaos-free cell; any
    integer becomes ``ChaosPlan.recovery(seed=n,
    intensity=chaos_intensity)``.
    """

    benchmarks: Tuple[str, ...] = ("blackscholes",)
    mode: str = "aikido-fasttrack"
    threads: int = 2
    scale: float = 0.05
    quantum: int = 100
    seeds: Tuple[int, ...] = (1,)
    chaos_seeds: Tuple[Optional[int], ...] = (None,)
    chaos_intensity: float = 0.05

    def __post_init__(self):
        if not self.benchmarks:
            raise HarnessError("a campaign needs at least one benchmark")
        for name in self.benchmarks:
            get_benchmark(name)  # WorkloadError names the valid choices

    def canonical(self) -> Dict:
        """JSON-able description, embedded in the report."""
        return dataclasses.asdict(self)

    def jobs(self) -> List[Job]:
        """The campaign's jobs, in canonical order."""
        jobs = []
        for benchmark in self.benchmarks:
            for seed in self.seeds:
                for chaos_seed in self.chaos_seeds:
                    config = None
                    if chaos_seed is not None:
                        config = AikidoConfig(chaos=ChaosPlan.recovery(
                            seed=chaos_seed,
                            intensity=self.chaos_intensity))
                    jobs.append(Job(benchmark, self.mode,
                                    threads=self.threads, scale=self.scale,
                                    seed=seed, quantum=self.quantum,
                                    config=config))
        return jobs


def campaign_report(spec: CampaignSpec, runner: ParallelRunner) -> Dict:
    """Run the campaign on ``runner``; return its report.

    Failed jobs never abort the campaign: each one becomes an ``error``
    outcome in its slot and is counted under ``failures``.
    """
    fp = fingerprint()
    jobs = spec.jobs()
    outcomes = []
    for job, entry in zip(jobs, runner.run(jobs, strict=False)):
        if isinstance(entry, JobFailure):
            outcome = {"status": "error", "kind": entry.kind,
                       "error_type": entry.error_type,
                       "message": entry.message}
        else:
            outcome = {"status": "ok", "payload": result_to_dict(entry)}
        outcome["unit"] = job.describe()
        outcome["key"] = job.key(fp)
        outcomes.append(outcome)
    return {
        "campaign": spec.canonical(),
        "fingerprint": fp,
        "units": len(outcomes),
        "failures": sum(1 for o in outcomes if o["status"] != "ok"),
        "outcomes": outcomes,
    }


def render_report(report: Dict) -> str:
    """Deterministic human-readable campaign summary."""
    lines = [f"fleet campaign: {report['units']} units, "
             f"{report['failures']} unit failure(s)"]
    for index, outcome in enumerate(report["outcomes"]):
        if outcome["status"] != "ok":
            lines.append(f"  FAILED unit {index} ({outcome['unit']}): "
                         f"[{outcome['kind']}] {outcome['error_type']}: "
                         f"{outcome['message']}")
    return "\n".join(lines)
