"""Fuzzing the static-analysis boundary with random multithreaded programs.

Extends the ``test_builder_fuzz`` approach to the new layer: for every
generated program the classifier and linter must never raise, and the
classifier must be sound against the dynamic sharing detector: no
instruction AikidoSD discovers touching a shared page (and so
instruments) is one the classifier called PROVABLY_PRIVATE.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.harness.runner import build_aikido_system
from repro.machine.asm import ProgramBuilder
from repro.machine.paging import PAGE_SIZE
from repro.staticanalysis import (
    SharingClass,
    analysis_for,
    classify_sharing,
    lint_program,
)

# Worker-body statements. Offsets are word indices inside one page, so
# every access stays inside its segment; "priv" accesses go through a
# per-thread page, "shared" accesses all land on one page.
statement = st.one_of(
    st.tuples(st.just("priv_load"), st.integers(0, 63)),
    st.tuples(st.just("priv_store"), st.integers(0, 63)),
    st.tuples(st.just("shared_load"), st.integers(0, 63)),
    st.tuples(st.just("shared_store"), st.integers(0, 63)),
    st.tuples(st.just("atomic"), st.integers(0, 7)),
    st.tuples(st.just("alu"), st.integers(0, 100)),
    st.tuples(st.just("lcg"), st.just(0)),
)


def _build(n_workers, body, loop_count):
    b = ProgramBuilder("fuzz-mt")
    priv = b.segment("priv", PAGE_SIZE * 4)
    shared = b.segment("shared", PAGE_SIZE)
    b.label("main")
    for i in range(n_workers):
        b.li(3, i + 1)
        b.spawn(5 + i, "child", arg_reg=3)
    for i in range(n_workers):
        b.join(5 + i)
    b.halt()
    b.label("child")
    # r2 -> this worker's private page; r6 -> the shared page.
    b.li(4, PAGE_SIZE)
    b.mul(2, 1, 4)
    b.add(2, 2, imm=priv)
    b.li(6, shared)
    b.li(10, 12345)
    with b.loop(12, loop_count):
        for op, val in body:
            if op == "priv_load":
                b.load(7, base=2, disp=val * 8)
            elif op == "priv_store":
                b.store(7, base=2, disp=val * 8)
            elif op == "shared_load":
                b.load(8, base=6, disp=val * 8)
            elif op == "shared_store":
                b.store(8, base=6, disp=val * 8)
            elif op == "atomic":
                b.atomic_add(9, 8, base=6, disp=val * 8)
            elif op == "alu":
                b.add(11, 11, imm=val)
            elif op == "lcg":
                b.lcg_next(10)
                b.lcg_offset(13, 10, PAGE_SIZE // 8)
                b.add(13, 13, 6)
                b.load(9, base=13, disp=0)
    b.halt()
    return b.build()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.lists(statement, min_size=1, max_size=12),
       st.integers(1, 4))
def test_classifier_and_linter_never_crash(n_workers, body, loop_count):
    try:
        program = _build(n_workers, body, loop_count)
    except ReproError:
        return  # clean validation failure is acceptable
    report = classify_sharing(program)
    # Structural invariants of the report.
    private = report.uids(SharingClass.PROVABLY_PRIVATE)
    shared = report.uids(SharingClass.PROVABLY_SHARED)
    assert not private & shared
    assert 0.0 <= report.coverage <= 1.0
    lint_program(program)  # findings are fine; exceptions are not


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.lists(statement, min_size=1, max_size=10),
       st.integers(1, 3), st.integers(0, 3))
def test_instrumented_uids_are_never_provably_private(n_workers, body,
                                                      loop_count, seed):
    try:
        program = _build(n_workers, body, loop_count)
    except ReproError:
        return
    system = build_aikido_system(program, seed=seed, quantum=120)
    try:
        system.run(max_instructions=200_000)
    except ReproError:
        return  # simulated failures are legitimate here
    # With per-thread protection, a PROVABLY_PRIVATE instruction can
    # never be discovered touching a shared page.
    private = analysis_for(program).sharing.uids(
        SharingClass.PROVABLY_PRIVATE)
    assert not system.sd.instrumented & private
