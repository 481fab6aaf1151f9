"""Static analysis over finalized mini-ISA programs.

This package is the first layer of the stack that reasons about programs
*without running them*. It provides:

* :mod:`repro.staticanalysis.cfg` — a basic-block control-flow graph
  with branch/fallthrough/CALL/SPAWN edges, reachability and dominators;
* :mod:`repro.staticanalysis.dataflow` — a generic forward worklist
  framework the concrete analyses are instances of;
* :mod:`repro.staticanalysis.constprop` — per-register constant/interval
  propagation, so register-indirect :class:`~repro.machine.isa.MemOperand`
  effective addresses resolve to bounded address sets where possible;
* :mod:`repro.staticanalysis.sharing` — an escape-style classifier
  mapping every static memory instruction to PROVABLY_PRIVATE /
  PROVABLY_SHARED / UNKNOWN, whose PROVABLY_PRIVATE verdicts feed the
  elision plan and the fuzz oracle's ``classifier_soundness`` check;
* :mod:`repro.staticanalysis.lockset` — sound must-hold-lockset forward
  dataflow per thread context (LOCK/UNLOCK/CALL effects, lock ids
  resolved through constprop);
* :mod:`repro.staticanalysis.races` — a static race detector pairing
  overlapping accesses of concurrent contexts into
  STATICALLY_RACE_FREE / POTENTIAL_RACE / UNKNOWN verdicts with witness
  paths (``aikido-repro races-static``);
* :mod:`repro.staticanalysis.elision` — turns classifier + race
  verdicts into a per-instruction shared-check elision plan, a static
  report that nothing at run time consumes;
* :mod:`repro.staticanalysis.analysiscache` — one memoized analysis
  pass (CFG, contexts, classifier, locksets, races, elision, lint) per
  program fingerprint, shared by the linter, race analyzer, elision
  planner and fuzz oracle;
* :mod:`repro.staticanalysis.lint` — structural and concurrency checks
  over workload programs (``aikido-repro lint``).
"""

from repro.staticanalysis.analysiscache import (
    ProgramAnalysis,
    analysis_for,
    program_fingerprint,
)
from repro.staticanalysis.cfg import CFG, EdgeKind
from repro.staticanalysis.constprop import AVal, ConstProp
from repro.staticanalysis.dataflow import ForwardProblem, solve_forward
from repro.staticanalysis.elision import ElisionPlan, build_elision_plan
from repro.staticanalysis.lint import Finding, lint_program
from repro.staticanalysis.lockset import (
    LockState,
    LocksetResult,
    compute_locksets,
)
from repro.staticanalysis.races import (
    RaceVerdict,
    StaticRaceReport,
    analyze_races,
)
from repro.staticanalysis.sharing import (
    SharingClass,
    SharingReport,
    classify_sharing,
)

__all__ = [
    "AVal",
    "CFG",
    "ConstProp",
    "EdgeKind",
    "ElisionPlan",
    "Finding",
    "ForwardProblem",
    "LockState",
    "LocksetResult",
    "ProgramAnalysis",
    "RaceVerdict",
    "SharingClass",
    "SharingReport",
    "StaticRaceReport",
    "analysis_for",
    "analyze_races",
    "build_elision_plan",
    "classify_sharing",
    "compute_locksets",
    "lint_program",
    "program_fingerprint",
    "solve_forward",
]
