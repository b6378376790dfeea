"""Unit tests for the out-of-order backend structures."""

from dataclasses import asdict, dataclass, replace
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import (
    FUPool,
    IssueQueue,
    LoadStoreQueue,
    ReorderBuffer,
    StoreSetPredictor,
)
from repro.core import build_core, model_config
from repro.core.inflight import InFlight
from repro.isa import DynInst, FUType, OpClass, int_reg


@dataclass
class FakeEntry:
    """Minimal in-flight record for structure tests."""

    seq: int
    inst: Optional[DynInst] = None
    mem_executed: bool = False
    lsq_written: bool = False
    # The IQ's lazy-removal bookkeeping reads these flags.
    issued: bool = False
    squashed: bool = False


def _load(seq, addr):
    return FakeEntry(seq=seq, inst=DynInst(
        seq=seq, pc=0x100 + 4 * seq, op=OpClass.LOAD, dest=int_reg(1),
        srcs=(int_reg(30),), mem_addr=addr, mem_size=8))


def _store(seq, addr):
    return FakeEntry(seq=seq, inst=DynInst(
        seq=seq, pc=0x100 + 4 * seq, op=OpClass.STORE,
        srcs=(int_reg(30), int_reg(2)), mem_addr=addr, mem_size=8))


def _delivered(core, count):
    """Queue ``count`` independent INT ALU ops for ``core``'s rename
    stage, delivered at cycle 0."""
    entries = [InFlight(DynInst(seq=seq, pc=0x100 + 4 * seq,
                                op=OpClass.INT_ALU, dest=int_reg(1 + seq),
                                srcs=()), fetch_cycle=0, deliver_cycle=0)
               for seq in range(count)]
    core.frontend_q.extend(entries)
    return entries


class TestROB:
    def test_fifo(self):
        """Rename fills the ROB in program order; commit retires the
        head."""
        core = build_core(model_config("BIG"))
        rob = core.rob
        entries = _delivered(core, 3)
        assert core._rename() == 3
        assert list(rob) == entries and rob.allocations == 3
        assert rob.head() is entries[0]
        entries[0].done = True
        entries[0].complete_cycle = 0
        assert core._commit() == 1
        assert rob.head() is entries[1]
        assert len(rob) == 2

    def test_capacity(self):
        """Rename stops at a full ROB and names it as the stall."""
        core = build_core(replace(model_config("BIG"), rob_entries=2))
        _delivered(core, 3)
        assert core._rename() == 2
        assert core._stall_reason == "rob_full"
        assert core.rob.full and core.rob.free == 0

    def test_squash_younger(self):
        rob = ReorderBuffer(8)
        rob._entries.extend(FakeEntry(i) for i in range(5))
        removed = rob.squash_younger_than(2)
        assert [e.seq for e in removed] == [4, 3]
        assert len(rob) == 3

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ReorderBuffer(0)


class TestIssueQueue:
    def test_dispatch_issue(self):
        """BIG's select loop issues the operand-ready entry: it leaves
        the live queue and counts one payload read, while its consumer
        waits in the queue."""
        core = build_core(model_config("BIG"))
        iq = core.iq
        a, b = (InFlight(DynInst(seq=seq, pc=0x100 + 4 * seq,
                                 op=OpClass.INT_ALU, dest=int_reg(dest),
                                 srcs=(int_reg(src),)), fetch_cycle=0)
                for seq, dest, src in ((0, 1, 2), (1, 3, 1)))
        for entry in (a, b):
            entry.renamed = core.renamer.rename(entry.inst)
            entry.issue_ready = 0
            iq.dispatch(entry)
            core._schedule_entry(entry)
        assert list(iq) == [a, b]
        assert core._issue() == 1
        assert a.issued and not b.issued
        assert list(iq) == [b] and len(iq) == 1
        assert iq.dispatches == 2 and iq.issues == 1

    def test_overflow(self):
        iq = IssueQueue(capacity=1)
        iq.dispatch(FakeEntry(0))
        assert iq.full
        with pytest.raises(RuntimeError):
            iq.dispatch(FakeEntry(1))

    def test_wakeup_energy_scales_with_occupancy(self):
        """A producer completing in the OXU broadcasts its tag once,
        compared against every live entry (the core's completion
        stage updates the queue's counters)."""
        core = build_core(model_config("BIG"))
        iq = core.iq
        for i in range(5):
            iq.dispatch(FakeEntry(i))
        producer = InFlight(DynInst(seq=5, pc=0x100, op=OpClass.INT_ALU,
                                    dest=int_reg(1), srcs=(int_reg(2),)),
                            fetch_cycle=0)
        producer.renamed = core.renamer.rename(producer.inst)
        core._schedule_completion(producer, 0)
        core._process_completions()
        assert producer.done
        assert iq.wakeup_broadcasts == 1
        assert iq.wakeup_cam_compares == 5

    def test_squash(self):
        iq = IssueQueue(capacity=8)
        for i in range(5):
            iq.dispatch(FakeEntry(i))
        iq.squash_younger_than(1)
        assert [e.seq for e in iq] == [0, 1]

    def test_occupancy_sampling(self):
        """The mean occupancy weighs each sample by the cycles it
        stands for (one per ticked cycle, the whole gap of a
        fast-forward jump)."""
        iq = IssueQueue(capacity=8)
        iq.dispatch(FakeEntry(0))
        iq.sample_occupancy_many(1)
        iq.dispatch(FakeEntry(1))
        iq.sample_occupancy_many(3)
        assert iq.mean_occupancy == 1.75

    @pytest.mark.parametrize("model", ["BIG", "HALF+FX", "CA"])
    def test_every_cycle_samples_occupancy_once(self, model):
        """Ticked and fast-forwarded cycles alike add one sample each."""
        from repro.workloads import generate_trace

        core = build_core(model_config(model))
        stats = core.run(generate_trace("mcf", 600, seed=1))
        assert core.iq._occupancy_samples == stats.cycles


class TestLSQ:
    def test_forwarding_hit(self):
        lsq = LoadStoreQueue()
        store = _store(0, 0x1000)
        load = _load(1, 0x1000)
        lsq.insert_store(store)
        lsq.insert_load(load)
        lsq.execute_store(store, in_ixu=False)
        assert lsq.execute_load(load, in_ixu=False)
        assert lsq.stats.forwarded_loads == 1

    def test_no_forward_from_younger_store(self):
        lsq = LoadStoreQueue()
        load = _load(0, 0x1000)
        store = _store(1, 0x1000)
        lsq.insert_load(load)
        lsq.insert_store(store)
        lsq.execute_store(store, in_ixu=False)
        assert not lsq.execute_load(load, in_ixu=False)

    def test_violation_detected(self):
        lsq = LoadStoreQueue()
        store = _store(0, 0x2000)
        load = _load(1, 0x2000)
        lsq.insert_store(store)
        lsq.insert_load(load)
        lsq.execute_load(load, in_ixu=False)      # load runs early
        violator = lsq.execute_store(store, in_ixu=False)
        assert violator is load
        assert lsq.stats.violations == 1

    def test_ixu_store_omits_violation_search(self):
        lsq = LoadStoreQueue()
        store = _store(0, 0x2000)
        lsq.insert_store(store)
        assert lsq.execute_store(store, in_ixu=True) is None
        assert lsq.stats.omitted_violation_searches == 1
        assert lsq.stats.violation_searches == 0

    def test_ixu_load_omits_write_when_stores_done(self):
        lsq = LoadStoreQueue()
        store = _store(0, 0x1000)
        load = _load(1, 0x3000)
        lsq.insert_store(store)
        lsq.insert_load(load)
        lsq.execute_store(store, in_ixu=True)
        lsq.execute_load(load, in_ixu=True)
        assert lsq.stats.omitted_load_writes == 1
        assert not load.lsq_written

    def test_ixu_load_written_when_older_store_pending(self):
        lsq = LoadStoreQueue()
        store = _store(0, 0x1000)
        load = _load(1, 0x3000)
        lsq.insert_store(store)
        lsq.insert_load(load)
        lsq.execute_load(load, in_ixu=True)   # store not yet executed
        assert lsq.stats.load_writes == 1
        assert load.lsq_written

    def test_unwritten_load_cannot_violate(self):
        """The omitted-write load is invisible to violation search —
        safe because its older stores had already executed."""
        lsq = LoadStoreQueue()
        store_a = _store(0, 0x1000)
        load = _load(1, 0x1000)
        store_b = _store(2, 0x1000)
        lsq.insert_store(store_a)
        lsq.insert_load(load)
        lsq.insert_store(store_b)
        lsq.execute_store(store_a, in_ixu=True)
        lsq.execute_load(load, in_ixu=True)   # omitted write
        violator = lsq.execute_store(store_b, in_ixu=False)
        assert violator is None  # store_b is younger: no violation anyway

    def test_capacity_and_commit(self):
        lsq = LoadStoreQueue(load_capacity=1, store_capacity=1)
        load = _load(0, 0x100)
        lsq.insert_load(load)
        assert lsq.loads_free == 0
        with pytest.raises(RuntimeError):
            lsq.insert_load(_load(1, 0x200))
        lsq.commit(load)
        assert lsq.loads_free == 1

    def test_squash(self):
        lsq = LoadStoreQueue()
        lsq.insert_load(_load(0, 0x100))
        lsq.insert_store(_store(5, 0x200))
        lsq.squash_younger_than(0)
        assert lsq.stores_free == lsq.store_capacity


#: Store addresses the property test draws from (few, so loads match).
_ADDRS = (0x100, 0x108, 0x110)


def _two_scan_execute_load(lsq, entry, in_ixu):
    """The LSQ's load search as two full scans of the store queue: one
    for a forwarding store, one for the IXU omission's premise."""
    stats = lsq.stats
    stats.forward_searches += 1
    older = [s for s in lsq.stores if s.seq < entry.seq]
    forwarded = any(s.mem_executed and s.inst.mem_addr == entry.inst.mem_addr
                    for s in older)
    if forwarded:
        stats.forwarded_loads += 1
    if in_ixu and all(s.mem_executed for s in older):
        stats.omitted_load_writes += 1
        entry.lsq_written = False
    else:
        stats.load_writes += 1
        entry.lsq_written = True
    entry.mem_executed = True
    if entry.seq > lsq._youngest_executed_load_seq:
        lsq._youngest_executed_load_seq = entry.seq
    return forwarded


class TestLoadSearch:
    """``execute_load`` searches the program-ordered store queue once,
    stopping at the first younger store."""

    @settings(max_examples=300, deadline=None)
    @given(stores=st.lists(st.tuples(st.booleans(), st.sampled_from(_ADDRS),
                                     st.integers(1, 3)),
                           max_size=12),
           load_pos=st.integers(0, 12),
           load_addr=st.sampled_from(_ADDRS),
           in_ixu=st.booleans())
    def test_one_pass_matches_two_scans(self, stores, load_pos, load_addr,
                                        in_ixu):
        load_pos = min(load_pos, len(stores))
        results = []
        for search in (LoadStoreQueue.execute_load, _two_scan_execute_load):
            lsq = LoadStoreQueue()
            seq = 0
            load = None
            for index, (executed, addr, gap) in enumerate(stores):
                if index == load_pos:
                    load = _load(seq, load_addr)
                    seq += 1
                store = _store(seq, addr)
                store.mem_executed = executed
                lsq.insert_store(store)
                seq += gap
            if load is None:
                load = _load(seq, load_addr)
            lsq.insert_load(load)
            forwarded = search(lsq, load, in_ixu)
            results.append((forwarded, load.lsq_written, load.mem_executed,
                            asdict(lsq.stats),
                            lsq._youngest_executed_load_seq))
        assert results[0] == results[1]


def _collect_execute_store(lsq, entry, in_ixu):
    """The LSQ's store search as a full scan of the load queue that
    collects every younger executed, written load to the store's
    address and returns the oldest."""
    stats = lsq.stats
    stats.store_writes += 1
    entry.mem_executed = True
    if in_ixu:
        stats.omitted_violation_searches += 1
        return None
    stats.violation_searches += 1
    violators = [load for load in lsq.loads
                 if load.lsq_written and load.mem_executed
                 and load.seq > entry.seq
                 and load.inst.mem_addr == entry.inst.mem_addr]
    if not violators:
        return None
    stats.violations += 1
    return min(violators, key=lambda load: load.seq)


class TestStoreSearch:
    """``execute_store`` returns the first violator of the
    program-ordered load queue, and skips the search when no load
    younger than the store has executed."""

    @settings(max_examples=300, deadline=None)
    @given(loads=st.lists(st.tuples(st.booleans(), st.booleans(),
                                    st.sampled_from(_ADDRS),
                                    st.integers(1, 3)),
                          max_size=12),
           store_pos=st.integers(0, 12),
           store_addr=st.sampled_from(_ADDRS),
           committed=st.integers(0, 3),
           squash_gap=st.one_of(st.none(), st.integers(0, 8)),
           in_ixu=st.booleans())
    def test_first_violator_matches_collect_then_min(
            self, loads, store_pos, store_addr, committed, squash_gap,
            in_ixu):
        store_pos = min(store_pos, len(loads))
        results = []
        for search in (LoadStoreQueue.execute_store, _collect_execute_store):
            lsq = LoadStoreQueue()
            seq = 0
            store = None
            for index, (executed, written, addr, gap) in enumerate(loads):
                if index == store_pos:
                    store = _store(seq, store_addr)
                    lsq.insert_store(store)
                    seq += 1
                load = _load(seq, addr)
                load.mem_executed = executed
                load.lsq_written = written
                lsq.insert_load(load)
                if executed:
                    # The bound execute_load keeps.
                    lsq._youngest_executed_load_seq = seq
                seq += gap
            if store is None:
                store = _store(seq, store_addr)
                lsq.insert_store(store)
            # Commit retires loads older than the store from the head;
            # it leaves the youngest-executed bound where it was.
            for load in lsq.loads[:committed]:
                if load.seq > store.seq:
                    break
                lsq.commit(load)
            if squash_gap is not None:
                lsq.squash_younger_than(store.seq + squash_gap)
            violator = search(lsq, store, in_ixu)
            results.append((None if violator is None else violator.seq,
                            store.mem_executed, asdict(lsq.stats),
                            lsq._youngest_executed_load_seq))
        assert results[0] == results[1]


class TestStoreSets:
    def test_untrained_load_free_to_go(self):
        pred = StoreSetPredictor()
        assert pred.load_dependency(0x100) is None

    def test_violation_creates_dependency(self):
        pred = StoreSetPredictor()
        pred.train_violation(load_pc=0x100, store_pc=0x200)
        store = FakeEntry(0)
        pred.store_dispatched(0x200, store)
        assert pred.load_dependency(0x100) is store

    def test_store_executed_clears(self):
        pred = StoreSetPredictor()
        pred.train_violation(0x100, 0x200)
        store = FakeEntry(0)
        pred.store_dispatched(0x200, store)
        pred.store_executed(0x200, store)
        assert pred.load_dependency(0x100) is None

    def test_merge_sets(self):
        pred = StoreSetPredictor()
        pred.train_violation(0x100, 0x200)
        pred.train_violation(0x300, 0x400)
        pred.train_violation(0x100, 0x400)  # pulls 0x400 into 0x100's set
        store = FakeEntry(0)
        pred.store_dispatched(0x400, store)
        assert pred.load_dependency(0x100) is store
        # 0x200 shares 0x100's set from the first violation.
        store_b = FakeEntry(1)
        pred.store_dispatched(0x200, store_b)
        assert pred.load_dependency(0x100) is store_b

    def test_lfst_tracks_latest_store(self):
        pred = StoreSetPredictor()
        pred.train_violation(0x100, 0x200)
        older, newer = FakeEntry(0), FakeEntry(1)
        pred.store_dispatched(0x200, older)
        pred.store_dispatched(0x200, newer)
        assert pred.load_dependency(0x100) is newer
        pred.store_executed(0x200, older)   # not the LFST entry: no-op
        assert pred.load_dependency(0x100) is newer


class TestFUPool:
    def test_issue_width_limit(self):
        pool = FUPool(FUType.INT, 2)
        assert pool.try_issue(OpClass.INT_ALU, 5)
        assert pool.try_issue(OpClass.INT_ALU, 5)
        assert not pool.try_issue(OpClass.INT_ALU, 5)
        assert pool.try_issue(OpClass.INT_ALU, 6)

    def test_unpipelined_divide_blocks_unit(self):
        pool = FUPool(FUType.INT, 1)
        assert pool.try_issue(OpClass.INT_DIV, 0)
        assert not pool.try_issue(OpClass.INT_ALU, 1)
        assert pool.try_issue(OpClass.INT_ALU, 12)

    def test_pipelined_mul_allows_back_to_back(self):
        pool = FUPool(FUType.INT, 1)
        assert pool.try_issue(OpClass.INT_MUL, 0)
        assert pool.try_issue(OpClass.INT_MUL, 1)

    def test_execution_count(self):
        pool = FUPool(FUType.FP, 2)
        pool.try_issue(OpClass.FP_ADD, 0)
        pool.try_issue(OpClass.FP_MUL, 0)
        assert pool.executions == 2

    def test_empty_pool(self):
        pool = FUPool(FUType.FP, 0)
        assert not pool.try_issue(OpClass.FP_ADD, 0)


class TestBypass:
    def test_counts(self):
        """Each executed instruction with a destination drives its
        network's result wire: the in-order core's, or on FXA the
        IXU's or the OXU's, whichever executed it."""
        from repro.workloads import generate_trace

        trace = generate_trace("hmmer", 600)
        writers = sum(1 for inst in trace if inst.dest is not None)
        little = build_core(model_config("LITTLE"))
        little.run(trace)
        assert little.bypass.broadcasts == writers
        fxa = build_core(model_config("HALF+FX"))
        fxa.run(trace)
        assert fxa.ixu_bypass.broadcasts > 0
        assert fxa.oxu_bypass.broadcasts > 0
        # A replayed instruction broadcasts again.
        assert (fxa.ixu_bypass.broadcasts + fxa.oxu_bypass.broadcasts
                >= writers)
