"""End-to-end oracle: real executions, three independent verdicts.

Random two-thread programs are compiled and *executed*; the full access
trace is recorded, and the racy-block verdicts of (a) online FastTrack,
(b) offline DJIT+ replay and (c) the networkx happens-before graph must
coincide. This extends the abstract-trace cross-validation to the whole
pipeline: builder -> kernel -> engine -> instrumentation -> detectors.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analyses.djit import DjitDetector
from repro.analyses.fasttrack.detector import FastTrackDetector
from repro.analyses.generic_tool import FullInstrumentationTool
from repro.analyses.hbgraph import HBGraph
from repro.analyses.record import TraceRecorder, replay_into
from repro.dbr.engine import DBREngine
from repro.guestos.kernel import Kernel
from repro.machine.asm import ProgramBuilder

N_SLOTS = 4   # shared 8-byte slots

#: (slot, is_write, locked) per access.
access_strategy = st.tuples(st.integers(0, N_SLOTS - 1), st.booleans(),
                            st.booleans())
pattern_strategy = st.tuples(st.lists(access_strategy, max_size=8),
                             st.lists(access_strategy, max_size=8))


def compile_pattern(main_accesses, child_accesses):
    b = ProgramBuilder("oracle")
    data = b.segment("slots", 64)

    def emit(accesses):
        for slot, is_write, locked in accesses:
            if locked:
                b.lock(lock_id=1)
            b.li(4, data + slot * 8)
            if is_write:
                b.li(5, slot + 1)
                b.store(5, base=4, disp=0)
            else:
                b.load(5, base=4, disp=0)
            if locked:
                b.unlock(lock_id=1)

    b.label("main")
    b.li(3, 0)
    b.spawn(6, "child", arg_reg=3)
    emit(main_accesses)
    b.join(6)
    b.halt()
    b.label("child")
    emit(child_accesses)
    b.halt()
    return b.build(), data


@settings(max_examples=120, deadline=None)
@given(pattern_strategy, st.integers(0, 3))
def test_three_verdicts_coincide_on_real_executions(pattern, seed):
    main_accesses, child_accesses = pattern
    program, data = compile_pattern(main_accesses, child_accesses)

    kernel = Kernel(seed=seed, quantum=4, jitter=0.3)
    kernel.create_process(program)
    engine = DBREngine(kernel)
    online = FastTrackDetector()
    recorder = TraceRecorder()

    class Both:
        """Feed the online detector and the recorder from one stream."""

        def on_access(self, tid, addr, is_write, uid=-1):
            online.on_access(tid, addr, is_write, uid)
            recorder.on_access(tid, addr, is_write, uid)

        def __getattr__(self, name):
            if name.startswith("on_"):
                def forward(*args):
                    getattr(online, name)(*args)
                    getattr(recorder, name)(*args)
                return forward
            raise AttributeError(name)

    engine.attach_tool(FullInstrumentationTool(kernel, Both()))
    kernel.run()

    online_blocks = {r.block for r in online.races}
    djit_blocks = {r.block
                   for r in replay_into(recorder.trace,
                                        DjitDetector).races}
    graph = HBGraph(recorder.trace)
    graph_blocks = {slot_block for slot_block in
                    (data // 8 + slot for slot in range(N_SLOTS))
                    if graph.racing_pairs(slot_block)}

    assert online_blocks == djit_blocks == graph_blocks, \
        (pattern, seed, recorder.trace)
