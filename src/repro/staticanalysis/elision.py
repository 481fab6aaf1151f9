"""Static shared-check elision plans: a report, not a fast path.

Turns the sharing classifier's and the static race analyzer's verdicts
into a per-instruction *elision plan*: the memory instructions whose
shared checks the static analyses say the dynamic tool could do
without:

* **private tier** — PROVABLY_PRIVATE accesses: no other thread context
  ever touches their (bounded) footprint, so their pages can never
  legitimately become SHARED.
* **locked tier** — accesses whose every pairing is
  ``STATICALLY_RACE_FREE`` (common must-held lock or fork ordering) but
  that are not provably private. Their pages *may* become shared.

Both tiers additionally require a bounded footprint in every reaching
context. The plan is a pure function of the program and is cached on
:class:`~repro.staticanalysis.analysiscache.ProgramAnalysis`.

Nothing at run time consumes the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.staticanalysis.sharing import SharingClass, _merge_intervals

TIER_PRIVATE = "private"
TIER_LOCKED = "locked"


@dataclass
class ElisionPlan:
    """Which memory uids need no shared check statically, and why."""

    program_name: str
    #: uid -> TIER_PRIVATE | TIER_LOCKED
    tiers: Dict[int, str] = field(default_factory=dict)
    #: uid -> merged page intervals over every reaching context.
    footprints: Dict[int, Tuple[Tuple[int, int], ...]] = \
        field(default_factory=dict)
    #: Total memory instructions considered (for coverage reporting).
    memory_instructions: int = 0
    #: Nonempty when the underlying analyses bailed out (empty plan).
    incomplete_reason: str = ""

    def tier(self, uid: int) -> Optional[str]:
        return self.tiers.get(uid)

    def __contains__(self, uid: int) -> bool:
        return uid in self.tiers

    def __len__(self) -> int:
        return len(self.tiers)

    def counts(self) -> Dict[str, int]:
        return {
            "private": sum(1 for t in self.tiers.values()
                           if t == TIER_PRIVATE),
            "locked": sum(1 for t in self.tiers.values()
                          if t == TIER_LOCKED),
        }

    @property
    def coverage(self) -> float:
        if not self.memory_instructions:
            return 0.0
        return len(self.tiers) / self.memory_instructions

    def as_dict(self) -> Dict:
        c = self.counts()
        return {
            "program": self.program_name,
            "memory_instructions": self.memory_instructions,
            "elidable": len(self.tiers),
            "private_tier": c["private"],
            "locked_tier": c["locked"],
            "coverage": round(self.coverage, 4),
            "incomplete_reason": self.incomplete_reason,
        }

    def render(self) -> str:
        d = self.as_dict()
        if self.incomplete_reason:
            return (f"elision plan: {self.program_name}: EMPTY "
                    f"({self.incomplete_reason})")
        return (f"elision plan: {self.program_name}: "
                f"{d['elidable']}/{d['memory_instructions']} accesses "
                f"elidable ({d['private_tier']} private, "
                f"{d['locked_tier']} locked, "
                f"coverage {d['coverage']:.1%})")


def build_elision_plan(analysis) -> ElisionPlan:
    """Build the elision plan from a cached :class:`ProgramAnalysis`."""
    program = analysis.program
    sharing = analysis.sharing
    races = analysis.races
    plan = ElisionPlan(program.name,
                       memory_instructions=len(sharing.classes))
    if sharing.incomplete:
        plan.incomplete_reason = \
            f"sharing analysis incomplete: {sharing.incomplete_reason}"
        return plan
    if races.incomplete:
        plan.incomplete_reason = \
            f"race analysis incomplete: {races.incomplete_reason}"
        return plan

    race_free = races.race_free_uids()
    for uid, cls in sharing.classes.items():
        reaching = [ctx.footprints[uid] for ctx in analysis.contexts
                    if uid in ctx.footprints]
        if not reaching or any(fp is None for fp in reaching):
            # Dead code, or a footprint the tripwire could not index.
            continue
        if cls is SharingClass.PROVABLY_PRIVATE:
            tier = TIER_PRIVATE
        elif uid in race_free:
            tier = TIER_LOCKED
        else:
            continue
        plan.tiers[uid] = tier
        plan.footprints[uid] = tuple(_merge_intervals(
            [span for fp in reaching for span in fp]))
    return plan
