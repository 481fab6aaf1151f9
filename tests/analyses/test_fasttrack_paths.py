"""FastTrack's single-charge read/write paths.

Each ``on_read``/``on_write`` call adds its whole path cost to the
``fasttrack`` cycle cell once. The table below drives one row per path
and checks the cell delta against the long-hand sum of the ``costs``
constants the path incurs, plus the path counters it bumps.
"""

from __future__ import annotations

import pytest

from repro import costs
from repro.analyses.fasttrack.aikido_tool import AikidoFastTrack
from repro.analyses.fasttrack.detector import FastTrackDetector
from repro.analyses.fasttrack.epoch import TID_BITS
from repro.core.config import AikidoConfig
from repro.guestos.kernel import Kernel
from repro.harness.runner import build_aikido_system
from repro.machine.cpu import CycleCounter
from repro.workloads import micro
from repro.workloads.parsec import build_benchmark

A = 0x100
CLEAN = costs.CLEAN_CALL
SAME = costs.FT_SAME_EPOCH
PING = costs.FT_METADATA_PING
INIT = costs.FT_METADATA_INIT
UPDATE = costs.FT_EPOCH_UPDATE
SHARED = costs.FT_READ_SHARED_BASE
VC = costs.FT_VC_BASE
PER = costs.FT_VC_PER_THREAD

#: (id, set-up ops, measured op, long-hand cost, same-epoch hits,
#: metadata pings, read-share transitions, race kinds reported).
#: An op is (handler, args...).
ORDER_2_BEFORE_1 = [("on_release", 2, 9), ("on_acquire", 1, 9)]
PATHS = [
    ("read-same-epoch", [("on_read", 1, A)], ("on_read", 1, A),
     CLEAN + SAME, 1, 0, 0, []),
    ("read-same-epoch-ping",
     [("on_write", 2, A)] + ORDER_2_BEFORE_1 + [("on_read", 1, A)],
     ("on_read", 1, A), CLEAN + SAME + PING, 1, 1, 0, []),
    ("read-same-epoch-read-shared",
     [("on_read", 2, A), ("on_read", 1, A)], ("on_read", 1, A),
     CLEAN + SAME, 1, 0, 0, []),
    ("write-same-epoch", [("on_write", 1, A)], ("on_write", 1, A),
     CLEAN + SAME, 1, 0, 0, []),
    ("read-first-touch", [], ("on_read", 1, A),
     CLEAN + INIT + UPDATE, 0, 0, 0, []),
    ("write-first-touch", [], ("on_write", 1, A),
     CLEAN + INIT + UPDATE, 0, 0, 0, []),
    ("read-exclusive-own-new-epoch",
     [("on_read", 1, A), ("on_release", 1, 9)], ("on_read", 1, A),
     CLEAN + UPDATE, 0, 0, 0, []),
    ("read-exclusive-ordered-other",
     [("on_read", 2, A)] + ORDER_2_BEFORE_1, ("on_read", 1, A),
     CLEAN + PING + UPDATE, 0, 1, 0, []),
    ("write-exclusive-ordered-other",
     [("on_write", 2, A)] + ORDER_2_BEFORE_1, ("on_write", 1, A),
     CLEAN + PING + UPDATE, 0, 1, 0, []),
    ("read-share-transition", [("on_read", 2, A)], ("on_read", 1, A),
     CLEAN + PING + VC + 2 * PER, 0, 1, 1, []),
    ("read-shared-update", [("on_read", 2, A), ("on_read", 1, A)],
     ("on_read", 3, A), CLEAN + SHARED, 0, 0, 0, []),
    ("write-after-read-shared",
     [("on_read", 2, A), ("on_read", 3, A), ("on_release", 2, 8),
      ("on_release", 3, 9), ("on_acquire", 1, 8), ("on_acquire", 1, 9)],
     ("on_write", 1, A), CLEAN + VC + 2 * PER, 0, 0, 0, []),
    ("race-write-write", [("on_write", 2, A)], ("on_write", 1, A),
     CLEAN + PING + UPDATE, 0, 1, 0, ["write-write"]),
    ("race-write-read", [("on_write", 2, A)], ("on_read", 1, A),
     CLEAN + PING + UPDATE, 0, 1, 0, ["write-read"]),
    ("race-read-write", [("on_read", 2, A)], ("on_write", 1, A),
     CLEAN + PING + UPDATE, 0, 1, 0, ["read-write"]),
    ("race-read-shared-write", [("on_read", 2, A), ("on_read", 3, A)],
     ("on_write", 1, A), CLEAN + VC + 2 * PER, 0, 0, 0, ["read-write"]),
]


def _apply(detector, op):
    name, *args = op
    getattr(detector, name)(*args)


@pytest.mark.parametrize(
    "setup, op, cost, hits, pings, transitions, races",
    [row[1:] for row in PATHS], ids=[row[0] for row in PATHS])
def test_path_books_its_long_hand_cost_once(setup, op, cost, hits, pings,
                                            transitions, races):
    counter = CycleCounter()
    detector = FastTrackDetector(counter)
    for step in setup:
        _apply(detector, step)
    cell = counter.cell("fasttrack")
    before = (cell[0], detector.same_epoch_hits, detector.metadata_pings,
              detector.read_shared_transitions, len(detector.races))
    _apply(detector, op)
    assert cell[0] - before[0] == cost
    assert detector.same_epoch_hits - before[1] == hits
    assert detector.metadata_pings - before[2] == pings
    assert detector.read_shared_transitions - before[3] == transitions
    assert [r.kind for r in detector.races[before[4]:]] == races
    assert counter.by_category == {"fasttrack": cell[0]}


def _assert_epochs_match_clocks(detector):
    for tid, thread in detector.meta.threads.items():
        assert thread.epoch >> TID_BITS == thread.vc.get(tid)


def test_epoch_clock_tracks_vector_clock_after_every_sync_handler():
    detector = FastTrackDetector()
    ops = [("on_fork", 1, 2), ("on_fork", 1, 3), ("on_acquire", 2, 5),
           ("on_release", 2, 5), ("on_acquire", 3, 5),
           ("on_release", 3, 5), ("on_barrier", (1, 2, 3), 4),
           ("on_acquire", 1, 5), ("on_join", 1, 2), ("on_join", 1, 3),
           ("on_release", 1, 6)]
    for op in ops:
        _apply(detector, op)
        _assert_epochs_match_clocks(detector)


class _Thread:
    def __init__(self, tid):
        self.tid = tid


def test_epoch_clock_tracks_vector_clock_after_page_hooks():
    kernel = Kernel(jitter=0.0)
    kernel.create_process(micro.private_work(1, 1)[0])
    adapter = AikidoFastTrack(kernel)
    detector = adapter.detector
    detector.on_acquire(1, 5)
    detector.on_release(1, 5)
    adapter.on_page_first_touch(0x40, _Thread(1))
    _assert_epochs_match_clocks(detector)
    adapter.on_page_shared(0x40, _Thread(2))
    _assert_epochs_match_clocks(detector)
    assert detector.meta.thread(2).vc.get(1) > 0


def test_charge_calls_per_shared_access_stay_within_budget(monkeypatch):
    """The paper's stack books almost every cycle through bound cells: a
    regression to one ``charge()`` per cost (6.25 calls per shared
    access on shared-heavy) fails this guard."""
    calls = [0]
    original = CycleCounter.charge

    def charge(self, category, cycles):
        calls[0] += 1
        original(self, category, cycles)

    monkeypatch.setattr(CycleCounter, "charge", charge)
    program = build_benchmark("streamcluster", threads=4, scale=1.0)
    system = build_aikido_system(program, seed=1, quantum=200, jitter=0.1,
                                 config=AikidoConfig())
    system.run()
    shared = system.sd.stats.shared_accesses
    assert shared > 1000
    assert calls[0] <= 1.5 * shared
