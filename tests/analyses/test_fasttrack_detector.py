"""Direct unit tests of the FastTrack algorithm (no simulation)."""

import pytest

from repro.analyses.fasttrack.detector import FastTrackDetector
from repro.analyses.fasttrack.vectorclock import VectorClock


def kinds(detector):
    return [r.kind for r in detector.races]


class TestBasicRaces:
    def test_write_write_race(self):
        d = FastTrackDetector()
        d.on_write(1, 0x100)
        d.on_write(2, 0x100)
        assert kinds(d) == ["write-write"]

    def test_write_read_race(self):
        d = FastTrackDetector()
        d.on_write(1, 0x100)
        d.on_read(2, 0x100)
        assert kinds(d) == ["write-read"]

    def test_read_write_race(self):
        d = FastTrackDetector()
        d.on_read(1, 0x100)
        d.on_write(2, 0x100)
        assert kinds(d) == ["read-write"]

    def test_read_read_is_never_a_race(self):
        d = FastTrackDetector()
        d.on_read(1, 0x100)
        d.on_read(2, 0x100)
        d.on_read(3, 0x100)
        assert d.races == []

    def test_same_thread_never_races(self):
        d = FastTrackDetector()
        d.on_write(1, 0x100)
        d.on_read(1, 0x100)
        d.on_write(1, 0x100)
        assert d.races == []

    def test_different_blocks_do_not_interact(self):
        d = FastTrackDetector()
        d.on_write(1, 0x100)
        d.on_write(2, 0x108)  # adjacent 8-byte block
        assert d.races == []

    def test_same_block_different_bytes_conflict(self):
        # 8-byte granularity: 0x100 and 0x104 share a block (the paper's
        # deliberate false-positive trade-off for packed data).
        d = FastTrackDetector()
        d.on_write(1, 0x100)
        d.on_write(2, 0x104)
        assert kinds(d) == ["write-write"]


class TestSynchronization:
    def test_lock_protected_accesses_do_not_race(self):
        d = FastTrackDetector()
        d.on_acquire(1, 9)
        d.on_write(1, 0x100)
        d.on_release(1, 9)
        d.on_acquire(2, 9)
        d.on_write(2, 0x100)
        d.on_release(2, 9)
        assert d.races == []

    def test_unrelated_lock_does_not_order(self):
        d = FastTrackDetector()
        d.on_acquire(1, 9)
        d.on_write(1, 0x100)
        d.on_release(1, 9)
        d.on_acquire(2, 8)      # different lock
        d.on_write(2, 0x100)
        d.on_release(2, 8)
        assert kinds(d) == ["write-write"]

    def test_fork_orders_parent_before_child(self):
        d = FastTrackDetector()
        d.on_write(1, 0x100)
        d.on_fork(1, 2)
        d.on_write(2, 0x100)
        assert d.races == []

    def test_join_orders_child_before_parent(self):
        d = FastTrackDetector()
        d.on_fork(1, 2)
        d.on_write(2, 0x100)
        d.on_join(1, 2)
        d.on_write(1, 0x100)
        assert d.races == []

    def test_parent_write_after_fork_races_with_child(self):
        d = FastTrackDetector()
        d.on_fork(1, 2)
        d.on_write(1, 0x100)
        d.on_write(2, 0x100)
        assert kinds(d) == ["write-write"]

    def test_barrier_orders_all_participants(self):
        d = FastTrackDetector()
        d.on_fork(1, 2)
        d.on_write(1, 0x100)
        d.on_write(2, 0x200)
        d.on_barrier((1, 2))
        d.on_write(1, 0x200)   # after barrier: ordered w.r.t. t2's write
        d.on_write(2, 0x100)
        assert d.races == []

    def test_accesses_after_barrier_still_race_with_each_other(self):
        d = FastTrackDetector()
        d.on_barrier((1, 2))
        d.on_write(1, 0x100)
        d.on_write(2, 0x100)
        assert kinds(d) == ["write-write"]


class TestEpochOptimization:
    def test_same_epoch_fast_path_counted(self):
        d = FastTrackDetector()
        d.on_write(1, 0x100)
        for _ in range(5):
            d.on_write(1, 0x100)
        assert d.same_epoch_hits == 5

    def test_read_shared_transition_once(self):
        d = FastTrackDetector()
        d.on_read(1, 0x100)
        d.on_read(2, 0x100)    # inflates to vector clock
        d.on_read(3, 0x100)    # stays shared, O(1) slot update
        assert d.read_shared_transitions == 1
        var = d.meta.vars[0x100 // 8]
        assert var.read_shared
        assert var.read_vc.get(1) > 0
        assert var.read_vc.get(2) > 0
        assert var.read_vc.get(3) > 0

    def test_ordered_write_deflates_read_shared(self):
        d = FastTrackDetector()
        d.on_fork(1, 2)
        d.on_read(1, 0x100)
        d.on_read(2, 0x100)
        d.on_join(1, 2)        # everything ordered before the write
        d.on_write(1, 0x100)
        assert d.races == []
        assert not d.meta.vars[0x100 // 8].read_shared

    def test_read_shared_write_reports_race_against_unordered_reader(self):
        d = FastTrackDetector()
        d.on_fork(1, 2)
        d.on_fork(1, 3)
        d.on_read(2, 0x100)
        d.on_read(3, 0x100)
        d.on_join(1, 2)        # t2 ordered, t3 NOT
        d.on_write(1, 0x100)
        assert kinds(d) == ["read-write"]


class TestReporting:
    def test_duplicate_reports_suppressed(self):
        d = FastTrackDetector()
        d.on_write(1, 0x100)
        d.on_write(2, 0x100)
        d.on_write(1, 0x100)
        d.on_write(2, 0x100)
        assert len(d.races) == 1

    def test_distinct_kinds_reported_separately(self):
        d = FastTrackDetector()
        d.on_write(1, 0x100)
        d.on_read(2, 0x100)    # write-read
        d.on_write(2, 0x100)   # write-write (t1's write still unordered)
        assert set(kinds(d)) == {"write-read", "write-write"}

    def test_max_reports_cap(self):
        d = FastTrackDetector(max_reports=3)
        for i in range(10):
            d.on_write(1, 0x100 + 8 * i)
        for i in range(10):
            d.on_write(2, 0x100 + 8 * i)
        assert len(d.races) == 3

    def test_report_describe_is_readable(self):
        d = FastTrackDetector()
        d.on_write(1, 0x100)
        d.on_write(2, 0x100)
        text = d.races[0].describe()
        assert "write-write" in text and "t2" in text

    def test_metadata_lazily_initialized(self):
        d = FastTrackDetector()
        assert len(d.meta.vars) == 0
        d.on_read(1, 0x100)
        assert len(d.meta.vars) == 1
        assert d.meta.var_inits == 1


class TestInlinedEpochCheck:
    """``epoch_leq_vc`` is the reference for the happens-before check the
    detector inlines: the last write races with an access exactly when
    it does not happen before the accessor's clock."""

    #: (last write as (tid, clock) or None, the reader's clock)
    TABLE = [
        (None, {2: 1}),
        ((1, 5), {1: 5, 2: 1}),
        ((1, 5), {1: 4, 2: 1}),
        ((1, 5), {1: 9, 2: 3}),
        ((3, 1), {2: 1}),
        ((2, 1), {2: 2}),
        ((255, 7), {255: 7, 2: 1}),
        ((255, 8), {255: 7, 2: 1}),
    ]

    @staticmethod
    def _detector(write, clock):
        from repro.analyses.fasttrack.epoch import EPOCH_NONE, make_epoch
        from repro.analyses.fasttrack.metadata import VarState
        d = FastTrackDetector()
        var = d.meta.vars[0x100 // d.meta.block_size] = VarState()
        var.write_epoch = EPOCH_NONE if write is None else make_epoch(*write)
        thread = d.meta.thread(2)
        thread.vc = VectorClock(clock)
        thread.refresh_epoch()
        return d, var.write_epoch, thread.vc

    @pytest.mark.parametrize("write,clock", TABLE)
    @pytest.mark.parametrize("access,kind", [("on_read", "write-read"),
                                             ("on_write", "write-write")])
    def test_detector_agrees_with_epoch_leq_vc(self, write, clock, access,
                                               kind):
        from repro.analyses.fasttrack.epoch import epoch_leq_vc
        d, epoch, vc = self._detector(write, clock)
        happens_before = epoch_leq_vc(epoch, vc)
        getattr(d, access)(2, 0x100)
        assert (kind in kinds(d)) == (not happens_before)

    def test_table_covers_both_outcomes(self):
        from repro.analyses.fasttrack.epoch import epoch_leq_vc
        outcomes = {epoch_leq_vc(*self._detector(*row)[1:])
                    for row in self.TABLE}
        assert outcomes == {True, False}


class TestReportAttribution:
    def test_describe_with_program_shows_disassembly(self):
        from repro.harness.runner import run_fasttrack
        from repro.workloads import micro

        program, _ = micro.racy_counter(2, 10)
        result = run_fasttrack(program, seed=3, quantum=15)
        assert result.races
        race = result.races[0]
        text = race.describe_with_program(program)
        assert "\n    at " in text
        assert "LOAD" in text or "STORE" in text

    def test_describe_with_program_without_uid_falls_back(self):
        from repro.analyses.fasttrack.reports import RaceReport
        from repro.workloads import micro

        program, _ = micro.racy_counter(2, 5)
        report = RaceReport("write-write", 1, 8, 0, 2, 3, instr_uid=-1)
        assert report.describe_with_program(program) == report.describe()


class TestMetadataStore:
    def test_thread_state_starts_at_clock_one(self):
        from repro.analyses.fasttrack.metadata import MetadataStore
        store = MetadataStore()
        thread = store.thread(3)
        assert thread.vc.get(3) == 1
        from repro.analyses.fasttrack.epoch import epoch_clock, epoch_tid
        assert epoch_tid(thread.epoch) == 3
        assert epoch_clock(thread.epoch) == 1

    def test_increment_refreshes_epoch(self):
        from repro.analyses.fasttrack.epoch import epoch_clock
        from repro.analyses.fasttrack.metadata import MetadataStore
        store = MetadataStore()
        thread = store.thread(2)
        thread.increment()
        assert epoch_clock(thread.epoch) == 2

    def test_block_of_respects_block_size(self):
        from repro.analyses.fasttrack.metadata import MetadataStore
        assert MetadataStore(block_size=8).block_of(0x17) == 2
        assert MetadataStore(block_size=16).block_of(0x17) == 1

    def test_drop_var_frees_metadata(self):
        from repro.analyses.fasttrack.metadata import MetadataStore
        store = MetadataStore()
        store.var(5)
        assert 5 in store.vars
        store.drop_var(5)
        assert 5 not in store.vars
        store.drop_var(5)  # idempotent

    def test_var_state_repr_readable(self):
        from repro.analyses.fasttrack.metadata import VarState
        text = repr(VarState())
        assert "W=⊥" in text
