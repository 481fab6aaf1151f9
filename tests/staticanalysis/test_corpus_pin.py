"""Corpus pin: the static analyses' results on a fixed program corpus.

The corpus is the ten PARSEC workloads (threads=4, scale=0.5) plus the
first 50 quick fuzz scenarios (seeds 1-50, as ``aikido-repro fuzz
--seed 1 --quick`` draws them). For every program the digest covers
the per-context register states before each instruction, the sharing
classes, the static race pair verdicts and the lint findings.

The pinned value was recorded before the constant-propagation lattice
gained its equal-operand short-circuits and interned constants; those
are pure speedups, so any change to this digest is a change in what
the analyses conclude and needs a deliberate re-pin.
"""

import hashlib
import json

from repro.scengen.generator import QUICK_CONFIG, generate
from repro.scengen.scenario import render
from repro.staticanalysis import lint_program
from repro.staticanalysis.analysiscache import (
    ProgramAnalysis,
    program_fingerprint,
)
from repro.workloads.parsec import benchmark_names, build_benchmark

PINNED_DIGEST = ("d275824cfb3209381e699a14a33e356c"
                 "9881e3cdbfd12d0fdacb1eb342f335d8")

SCENARIO_SEEDS = range(1, 51)


def _aval(v):
    return [v.kind, sorted(v.consts), v.lo, v.hi, v.maybe_tid]


def _program_record(program):
    # A fresh bundle per program: the pin must not depend on what an
    # earlier test left in the process-wide analysis cache.
    analysis = ProgramAnalysis(program, program_fingerprint(program))
    contexts = [
        [ctx.key.entry, _aval(ctx.key.arg), ctx.instances,
         [[uid, [_aval(v) for v in regs]]
          for uid, regs in sorted(ctx.states.items())]]
        for ctx in analysis.contexts]
    sharing = analysis.sharing
    races = analysis.races
    return {
        "name": program.name,
        "discovery": analysis.discovery_reason,
        "contexts": contexts,
        "classes": [[uid, cls.value]
                    for uid, cls in sorted(sharing.classes.items())],
        "sharing_incomplete": sharing.incomplete,
        "race_pairs": [[a, b, pair.verdict.value, pair.reason]
                       for (a, b), pair in sorted(races.pairs.items())],
        "races_incomplete": races.incomplete,
        "lint": [f.render() for f in lint_program(program, cfg=analysis.cfg,
                                                  _cacheable=False)],
    }


def corpus_programs():
    for name in benchmark_names():
        yield build_benchmark(name, threads=4, scale=0.5)
    for seed in SCENARIO_SEEDS:
        program, _ = render(generate(seed, QUICK_CONFIG))
        yield program


def corpus_digest() -> str:
    h = hashlib.sha256()
    for program in corpus_programs():
        h.update(json.dumps(_program_record(program),
                            sort_keys=True).encode())
    return h.hexdigest()


def test_static_analysis_corpus_digest_is_pinned():
    assert corpus_digest() == PINNED_DIGEST
