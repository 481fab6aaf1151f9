"""Seeded scenario generation, differential oracle, and reducer.

The fuzzing stack of the repro: :func:`generate` composes workloads
from configurable distributions, :func:`check_scenario` cross-checks
them across execution tiers and analyses, :func:`reduce_scenario`
shrinks failures to minimal repros, and :func:`run_campaign` drives
resumable seed-range campaigns (``aikido-repro fuzz``).
"""

from repro.scengen.campaign import (
    ORACLE_VERSION,
    CampaignResult,
    FuzzUnit,
    campaign_to_dict,
    render_campaign,
    run_campaign,
    scenario_key,
)
from repro.scengen.generator import (
    DEFAULT_CONFIG,
    QUICK_CONFIG,
    GeneratorConfig,
    generate,
)
from repro.scengen.oracle import (
    check_scenario,
    default_tier_runner,
    failure_signature,
    install_smc,
)
from repro.scengen.reducer import (
    ReductionResult,
    measure,
    reduce_scenario,
)
from repro.scengen.scenario import (
    MAX_THREADS,
    OP_KINDS,
    PLAIN_OP_KINDS,
    RenderInfo,
    ScenarioIR,
    WorkerSpec,
    describe,
    instruction_count,
    render,
)

__all__ = [
    "ORACLE_VERSION",
    "CampaignResult",
    "FuzzUnit",
    "campaign_to_dict",
    "render_campaign",
    "run_campaign",
    "scenario_key",
    "DEFAULT_CONFIG",
    "QUICK_CONFIG",
    "GeneratorConfig",
    "generate",
    "check_scenario",
    "default_tier_runner",
    "failure_signature",
    "install_smc",
    "ReductionResult",
    "measure",
    "reduce_scenario",
    "MAX_THREADS",
    "OP_KINDS",
    "PLAIN_OP_KINDS",
    "RenderInfo",
    "ScenarioIR",
    "WorkerSpec",
    "describe",
    "instruction_count",
    "render",
]
