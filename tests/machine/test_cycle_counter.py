"""CycleCounter: one mutable cell per cost category."""

from repro.machine.cpu import CycleCounter
from repro.observability.tracer import Tracer


def test_charge_and_cell_share_one_storage():
    counter = CycleCounter()
    counter.charge("umbra", 8)
    cell = counter.cell("umbra")
    assert cell == [8]
    cell[0] += 40
    counter.charge("umbra", 300)
    assert cell[0] == 348
    assert counter.by_category == {"umbra": 348}
    # A cell bound before any charge is the one charge() adds to.
    early = counter.cell("dbr")
    counter.charge("dbr", 2)
    assert early == [2]
    assert counter.cell("dbr") is early


def test_total_is_instructions_plus_every_cell():
    counter = CycleCounter()
    counter.instr_cycles += 100
    counter.cell("fasttrack")[0] += 240
    counter.charge("aikido_inline", 40)
    counter.charge("fasttrack", 20)
    cells = counter.by_category
    assert counter.total == counter.instr_cycles + sum(cells.values())
    assert counter.total == 400


def test_snapshot_carries_instructions():
    counter = CycleCounter()
    counter.instr_cycles = 7
    counter.charge("sync", 5)
    assert counter.snapshot() == {"sync": 5, "instr": 7}
    # A copy: later adds do not reach an earlier snapshot.
    snap = counter.snapshot()
    counter.charge("sync", 1)
    assert snap["sync"] == 5


def test_bound_but_unused_cell_is_absent():
    counter = CycleCounter()
    counter.cell("aikido_inline")
    assert counter.by_category == {}
    assert counter.snapshot() == {"instr": 0}
    assert counter.total == 0


def test_instant_between_inline_adds_sees_only_the_first():
    counter = CycleCounter()
    tracer = Tracer(counter)
    cell = counter.cell("fasttrack")
    cell[0] += 220
    tracer.instant("shared_access", "tool", tid=1)
    cell[0] += 20
    assert [e.ts for e in tracer.events] == [220]
    assert counter.total == 240
