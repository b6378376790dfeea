"""Cycle-level out-of-order superscalar core (Figure 1 baseline).

Trace-driven model of the conventional physical-register-file superscalar
the paper compares against (BIG / HALF).  Key mechanisms:

* The front end every family shares (:mod:`repro.core.base`): fetch
  with g-share+BTB+RAS prediction; a misprediction stops fetch until
  the branch executes (no wrong-path fetch), after which the front-end
  refill depth supplies the Table I penalty.
* Rename allocates PRF/ROB/LSQ/IQ resources in program order and stalls on
  exhaustion.
* Age-ordered wakeup/select over the issue queue under issue-width, FU and
  memory-dependence (store-set) constraints; operand readiness is a
  per-physical-register timestamp, giving back-to-back wakeup.
* Loads search the LSQ for store-to-load forwarding; stores search younger
  executed loads and squash-and-replay on an ordering violation (the trace
  cursor literally rewinds).
* In-order commit; stores write the data cache at commit.

The model executes no wrong-path instructions; their FU energy is instead
estimated statistically at each misprediction resolution (see
``CoreBase._resolve_branch``) so the energy comparison against the
in-order core keeps the paper's Figure 8b shape.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Deque, Dict, List, Optional, Tuple

from repro.backend import (
    BypassNetwork,
    IssueQueue,
    LoadStoreQueue,
    ReorderBuffer,
    StoreSetPredictor,
)
from repro.core import kernel
from repro.core.base import (
    _FP_ARITH,
    CoreBase,
    SimulationError,
    frontend_stall,
    memory_bound_leaf,
)
from repro.core.config import CoreConfig
from repro.core.inflight import InFlight
from repro.core.kernel import DEADLOCK_LIMIT, NO_EVENT
from repro.core.stats import CoreStats, EventCounts
from repro.isa.instruction import DynInst
from repro.isa.opclass import OpClass
from repro.isa.registers import RegClass
from repro.rename.prf import NEVER

_MOV = OpClass.MOV

#: Slot-tree leaf of each rename stall (see ``_classify``).
_RENAME_STALL_LEAVES = {
    "iq_full": "backend_bound.core.iq_full",
    "rob_full": "backend_bound.core.rob_full",
    "lsq_full": "backend_bound.core.lsq_full",
    "prf_full": "backend_bound.core.prf_full",
}


class OutOfOrderCore(CoreBase):
    """Conventional out-of-order superscalar (BIG/HALF of Table I).

    Takes the :class:`~repro.core.base.CoreBase` arguments.
    """

    CORE_TYPE = "ooo"

    def __init__(self, config: CoreConfig, obs=None, validator=None,
                 warm_state=None):
        super().__init__(config, obs, validator, warm_state)
        # Renamer import is local to avoid a cycle with repro.rename docs.
        from repro.rename import Renamer

        self.renamer = Renamer(config.int_prf_entries,
                               config.fp_prf_entries)
        self.rob = ReorderBuffer(config.rob_entries)
        self.iq = IssueQueue(config.iq_entries)
        self.lsq = LoadStoreQueue(config.lq_entries, config.sq_entries)
        self.store_sets = StoreSetPredictor()
        self.oxu_bypass = BypassNetwork()
        # The PRF ready lists are prebound per class once: they are
        # mutated in place and never rebound, so dispatch can pair each
        # source preg with its list for flat-column operand checks.
        self._ready_lists = {
            cls: prf.ready_cycles for cls, prf in self.renamer.prf.items()
        }
        self.dispatch_q: Deque[InFlight] = deque()
        # Event-driven wakeup (see _schedule_entry): entries whose
        # operand-arrival cycles are all known sit in the wake heap
        # keyed (wake_cycle, seq); entries waiting on an unscheduled
        # producer sit in that preg's waiter list (one slot per preg of
        # each class, None while nobody waits) until the producer's
        # completion reveals its arrival cycle.  Woken entries move to
        # the age-ordered ready list the select loop scans — the loop
        # never touches entries that cannot issue yet.
        self._wake_heap: List[Tuple[int, int, InFlight]] = []
        self._ready_entries: List[Tuple[int, InFlight]] = []
        self._iq_waiters: Dict[RegClass, List[Optional[List[InFlight]]]] = {
            cls: [None] * prf.entries
            for cls, prf in self.renamer.prf.items()
        }
        self._last_commit_cycle = 0
        self._iq_reserved = 0
        # PRF read ports claimed this cycle, as one ``(cycle, claimed)``
        # pair: OXU issue and FXA's front-end register read only ever
        # claim ports for the current cycle, and issue runs first, so
        # the OXU has priority.  Only FXA consumes the ledger (its
        # register read competes with the OXU for the shared ports);
        # the plain OoO and clustered cores never touch it.
        self._prf_ports: Tuple[int, int] = (-1, 0)
        self._track_prf_ports = False
        # Stall attribution state is kept even when obs is off: the
        # stores sit on cold paths and cost nothing.
        self._stall_reason: Optional[str] = None
        self._attach_observers()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, trace: List[DynInst],
            max_cycles: Optional[int] = None) -> CoreStats:
        """Simulate ``trace`` to completion and return statistics.

        The trace must be indexable by sequence number (``trace[i].seq
        == i``) because ordering-violation replay rewinds the cursor.
        """
        if trace and trace[0].seq != 0:
            raise ValueError("trace must start at seq 0")
        self.trace = trace
        self._max_cycles = max_cycles  # clamps the fast-forward jump
        trace_len = len(trace)
        rob_entries = self.rob._entries
        while self.fetch_idx < trace_len or rob_entries or self.frontend_q:
            if max_cycles is not None and self.cycle >= max_cycles:
                break
            self._tick()
            if self.cycle - self._last_commit_cycle > DEADLOCK_LIMIT:
                raise SimulationError(
                    f"{self.config.name}: no commit for "
                    f"{DEADLOCK_LIMIT} cycles at cycle {self.cycle} "
                    f"(head={self.rob.head()!r})"
                )
        return self._finish_run(self.cycle)

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        # Each stage reports whether it moved any state; a tick where
        # nothing moved is provably repeatable and may fast-forward.
        completion_cycles = self._completion_cycles
        quiet = not completion_cycles or completion_cycles[0] > self.cycle
        if not quiet:
            self._process_completions()
        committed = self._commit()
        issued = self._issue()
        dispatched = self._dispatch()
        renamed = self._rename()
        fetch_moved = self._fetch()
        # The issue queue's per-cycle occupancy sample.
        iq = self.iq
        iq._occupancy_accum += iq._live
        iq._occupancy_samples += 1
        if self._obs is not None:
            self._obs.on_cycles(self, committed, 1)
        if self._validator is not None:
            self._validator.on_cycle(self, committed)
        self.cycle += 1
        if (
            self._ff
            and quiet
            and not committed
            and not issued
            and not dispatched
            and not renamed
            and not fetch_moved
        ):
            kernel.advance(self, self._last_commit_cycle)

    # ------------------------------------------------------------------
    # Event horizon (fast-forward kernel)
    # ------------------------------------------------------------------

    def _event_horizon(self) -> int:
        """Earliest future cycle at which any pipeline state can change:
        the shared thresholds (``_base_horizon``), then the heads of the
        front-end queue (rename's input) and the dispatch queue and the
        issue queue's earliest wakeup.

        Only consulted on idle ticks.  Conservative thresholds (those
        that merely *might* unblock a stage) are always safe: they only
        shorten the jump.
        """
        cycle = self.cycle
        horizon = self._base_horizon()
        if self.frontend_q:
            ready = self.frontend_q[0].deliver_cycle
            if cycle <= ready < horizon:
                horizon = ready
        if self.dispatch_q:
            due = self.dispatch_q[0].dispatch_cycle
            if cycle <= due < horizon:
                horizon = due
        iq_horizon = self._iq_horizon(cycle)
        if iq_horizon < horizon:
            horizon = iq_horizon
        return horizon

    def _iq_horizon(self, cycle: int) -> int:
        """Earliest cycle any issue-queue entry could become ready.

        The wake heap's head *is* that cycle: entries waiting on an
        unscheduled producer (arrival ``NEVER``) are not in the heap —
        their producer has yet to complete, which requires an earlier
        event already covered by the completion calendar.  Entries in the
        ready list are ready *now* but blocked structurally; their
        unblocking likewise requires another covered event, so they
        contribute no threshold (this matches the former full scan's
        ``cycle <= threshold`` guard).
        """
        heap = self._wake_heap
        while heap:
            wake, _, entry = heap[0]
            if entry.squashed or entry.issued:
                heappop(heap)
                continue
            if wake < cycle:
                # Only reachable on an active tick (dispatch runs after
                # issue); never on the idle ticks that fast-forward.
                return cycle
            return wake
        return NO_EVENT

    # ------------------------------------------------------------------
    # Rename
    # ------------------------------------------------------------------

    def _rename(self) -> int:
        """Rename delivered entries in program order, up to the rename
        width, into the ROB, the LSQ and the family's route towards the
        issue queue (``_after_rename``).

        Each entry first secures every resource it needs: a free
        physical register for its destination, a ROB slot, an LSQ slot
        for a memory op, and an IQ route (``_iq_slot_available``).  A
        move the RENO extension eliminates needs the ROB slot only.
        The first check that fails stops rename and records which
        structure blocked it (``_stall_reason``); the stall attributor
        charges the cycle to it when nothing commits.
        """
        reason = None
        renamed = 0
        frontend_q = self.frontend_q
        cycle = self.cycle
        if frontend_q and frontend_q[0].deliver_cycle <= cycle:
            config = self.config
            width = config.rename_width
            move_elimination = config.move_elimination
            validator = self._validator
            rob_entries = self.rob._entries
            rob_room = self.rob.capacity - len(rob_entries)
            renamer = self.renamer
            rename = renamer.rename
            free_lists = renamer.free
            lsq = self.lsq
            store_sets = self.store_sets
            iq_slot_available = self._iq_slot_available
            after_rename = self._after_rename
            while frontend_q and renamed < width:
                entry = frontend_q[0]
                if entry.deliver_cycle > cycle:
                    break
                inst = entry.inst
                dest = inst.dest
                if (inst.op is _MOV and move_elimination
                        and dest is not None and len(inst.srcs) == 1
                        and dest.cls is inst.srcs[0].cls):
                    if renamed >= rob_room:
                        reason = "rob_full"
                        break
                    # RENO: the move becomes a rename-table update; it
                    # still takes a ROB slot and commits, but never
                    # executes.
                    frontend_q.popleft()
                    entry.renamed = renamer.rename_move(inst)
                    entry.rename_cycle = cycle
                    entry.complete_cycle = cycle
                    if validator is not None:
                        validator.on_rename(self, entry)
                    rob_entries.append(entry)
                    self._schedule_completion(entry, cycle)
                    renamed += 1
                    continue
                if dest is not None and not free_lists[dest.cls]._free:
                    reason = "prf_full"
                    break
                if renamed >= rob_room:
                    reason = "rob_full"
                    break
                if inst.is_mem:
                    if inst.is_load:
                        lsq_full = len(lsq._loads) >= lsq.load_capacity
                    else:
                        lsq_full = len(lsq._stores) >= lsq.store_capacity
                    if lsq_full:
                        reason = "lsq_full"
                        break
                if not iq_slot_available(entry):
                    reason = "iq_full"
                    break
                frontend_q.popleft()
                entry.renamed = rename(inst)
                entry.rename_cycle = cycle
                if validator is not None:
                    validator.on_rename(self, entry)
                rob_entries.append(entry)
                if inst.is_load:
                    lsq.insert_load(entry)
                    # LFST is read in program order at rename: it holds
                    # the youngest *older* store of the load's store set.
                    entry.mem_dep = store_sets.load_dependency(inst.pc)
                elif inst.is_store:
                    lsq.insert_store(entry)
                    store_sets.store_dispatched(inst.pc, entry)
                after_rename(entry)
                renamed += 1
            self.rob.allocations += renamed
        self._stall_reason = reason
        return renamed

    def _iq_slot_available(self, entry: InFlight) -> bool:
        """The plain OoO core reserves an IQ slot at rename."""
        return self.iq.free - self._iq_reserved > 0

    def _after_rename(self, entry: InFlight) -> None:
        """Hook: route the renamed instruction toward dispatch."""
        entry.dispatch_cycle = self.cycle + self.config.rename_to_dispatch
        self.dispatch_q.append(entry)
        self._iq_reserved += 1

    # ------------------------------------------------------------------
    # Dispatch (into the issue queue)
    # ------------------------------------------------------------------

    def _dispatch(self) -> int:
        dispatch_q = self.dispatch_q
        cycle = self.cycle
        if not dispatch_q or dispatch_q[0].dispatch_cycle > cycle:
            return 0
        config = self.config
        width = config.rename_width
        issue_ready = cycle + config.dispatch_to_issue
        iq_dispatch = self.iq.dispatch
        schedule = self._schedule_entry
        moved = 0
        dispatched = 0
        while dispatch_q and dispatched < width:
            entry = dispatch_q[0]
            if entry.dispatch_cycle > cycle:
                break
            dispatch_q.popleft()
            moved += 1
            if entry.squashed:
                continue
            entry.iq_cycle = cycle
            # issue_ready is final before dispatch: the wakeup engine
            # folds it into the entry's wake cycle on registration.
            entry.issue_ready = issue_ready
            iq_dispatch(entry)
            schedule(entry)
            dispatched += 1
        self._iq_reserved -= dispatched
        return moved

    # ------------------------------------------------------------------
    # Issue / execute
    # ------------------------------------------------------------------

    def _entry_wake(self, entry: InFlight) -> int:
        """Earliest cycle ``entry`` can issue, given every source
        arrival is known (all below ``NEVER``)."""
        wake = entry.issue_ready
        for ready_cycles, _waiters, preg in entry.src_pairs:
            arrival = ready_cycles[preg]
            if arrival > wake:
                wake = arrival
        return wake

    def _schedule_entry(self, entry: InFlight) -> None:
        """Register a freshly-dispatched entry with the wakeup engine.

        Binds the entry's ``src_pairs``, one ``(ready cycles, waiter
        slots, preg)`` triple per source, the two lists those of the
        source's register class (only entries that reach the issue
        queue need them).  If every
        source's arrival cycle is already known the entry goes straight
        onto the wake heap; otherwise it parks in the waiter list of
        each unscheduled source and is re-examined when that producer's
        completion announces the arrival cycle
        (``_process_completions``).
        """
        waiting = 0
        waiters = self._iq_waiters
        ready_lists = self._ready_lists
        entry.src_pairs = src_pairs = [
            (ready_lists[cls], waiters[cls], preg)
            for cls, preg in entry.renamed.srcs
        ]
        for ready_cycles, slots, preg in src_pairs:
            if ready_cycles[preg] >= NEVER:
                bucket = slots[preg]
                if bucket is None:
                    slots[preg] = [entry]
                else:
                    bucket.append(entry)
                waiting += 1
        entry.wait_count = waiting
        if not waiting:
            heappush(self._wake_heap,
                     (self._entry_wake(entry), entry.seq, entry))

    def _scheduler_squash(self, boundary_seq: int) -> None:
        """Drop squashed entries from the wakeup structures.

        Waiter lists are cleaned lazily (squashed entries are skipped
        at wake time); the heap is filtered eagerly so the horizon peek
        stays cheap."""
        self._ready_entries = [
            item for item in self._ready_entries if not item[1].squashed
        ]
        heap = self._wake_heap
        for item in heap:
            if item[2].squashed:
                self._wake_heap = [
                    it for it in heap if not it[2].squashed
                ]
                heapify(self._wake_heap)
                break

    def _load_dependence_clear(self, entry: InFlight) -> bool:
        """Store-set check: may this load issue ahead of older stores?

        The dependency was captured at rename (LFST read in program
        order); the load waits until that store has executed.
        """
        dep = entry.mem_dep
        if dep is None:
            return True
        return dep.squashed or dep.mem_executed or dep.seq >= entry.seq

    def _issue(self) -> int:
        cycle = self.cycle
        heap = self._wake_heap
        ready = self._ready_entries
        if heap and heap[0][0] <= cycle:
            while heap and heap[0][0] <= cycle:
                _, seq, entry = heappop(heap)
                if entry.squashed or entry.issued:
                    continue
                insort(ready, (seq, entry))
        if not ready:
            return 0
        # Age-ordered select over entries that are operand-ready *now*
        # (the wake heap guarantees it); only structural conditions —
        # FU ports, issue width, memory dependences — are re-checked.
        # ``ready`` is iterated live: a mid-loop squash is followed by
        # an immediate break, and the post-loop sweep rebuilds from the
        # (possibly rebound) attribute.
        issued = 0
        width = self.config.issue_width
        fu = self.fu
        iq = self.iq
        execute = self._execute
        for _, entry in ready:
            if entry.squashed or entry.issued:
                continue
            inst = entry.inst
            if inst.is_load and not self._load_dependence_clear(entry):
                continue
            if not fu[inst.fu_type].try_issue(inst.op, cycle):
                continue
            # The entry leaves the queue's live count (a payload read);
            # the backing list drops it lazily (``remove_issued``).
            iq.issues += 1
            iq._live -= 1
            entry.issued = True
            issued += 1
            execute(entry, cycle, False)
            if entry.squashed:
                # An ordering violation squashed younger state; restart
                # next cycle.
                break
            if issued >= width:
                break
        if issued:
            iq.remove_issued()
            self._ready_entries = [
                item for item in self._ready_entries
                if not item[1].issued and not item[1].squashed
            ]
        return issued

    def _execute(self, entry: InFlight, cycle: int, in_ixu: bool) -> None:
        """Begin execution at ``cycle``; schedules the completion."""
        inst = entry.inst
        entry.issue_cycle = cycle
        if not in_ixu:
            renamed = entry.renamed
            # Register-read stage after issue (counts PRF read ports).
            srcs = renamed.srcs
            if srcs:
                prf = self.renamer.prf
                for cls, _preg in srcs:
                    prf[cls].reads += 1
                if self._track_prf_ports:
                    port_cycle, claimed = self._prf_ports
                    if port_cycle != cycle:
                        claimed = 0
                    self._prf_ports = (cycle, claimed + len(srcs))
            if renamed.dest is not None:
                # The result drives the OXU bypass network.
                self.oxu_bypass.broadcasts += 1
        if inst.is_load:
            if self.lsq.execute_load(entry, in_ixu):
                self.stats.forwarded_loads += 1
                complete = cycle + 2  # AGU + store-queue forward
            else:
                complete = (cycle + 1
                            + self.hierarchy.load(inst.mem_addr).latency)
        elif inst.is_store:
            violator = self.lsq.execute_store(entry, in_ixu)
            self.store_sets.store_executed(inst.pc, entry)
            complete = cycle + 1
            if violator is not None:
                self._handle_violation(violator, entry)
            if self._validator is not None:
                # After recovery: surviving younger executed loads to
                # this address are missed ordering violations.
                self._validator.on_store_executed(self, entry, in_ixu)
        else:
            complete = cycle + inst.latency
        entry.complete_cycle = complete
        entry.written_cycle = complete + 1  # writeback, then readable
        self._schedule_completion(entry, complete)

    # ------------------------------------------------------------------
    # Completion / writeback
    # ------------------------------------------------------------------

    def _process_completions(self) -> None:
        """Mark every entry due this cycle done, publish its result to
        the PRF and wake the issue-queue entries waiting on it, and
        resolve completed branches."""
        prf_map = self.renamer.prf
        waiters = self._iq_waiters
        wake_heap = self._wake_heap
        entry_wake = self._entry_wake
        iq = self.iq
        for entry in self._due_completions():
            if entry.squashed:
                continue
            entry.done = True
            renamed = entry.renamed
            dest = renamed.dest
            if dest is not None and not renamed.eliminated:
                dest_cls = renamed.dest_cls
                # The value is bypassable from its complete cycle and
                # in the PRF from its written cycle; one PRF write.
                prf = prf_map[dest_cls]
                prf.ready_cycles[dest] = entry.complete_cycle
                prf.writes += 1
                prf._written[dest] = entry.written_cycle
                # The arrival cycle is now known: re-examine the
                # entries waiting on this register.
                slots = waiters[dest_cls]
                bucket = slots[dest]
                if bucket is not None:
                    slots[dest] = None
                    for waiter in bucket:
                        if waiter.squashed or waiter.issued:
                            continue
                        waiter.wait_count -= 1
                        if not waiter.wait_count:
                            heappush(wake_heap, (entry_wake(waiter),
                                                 waiter.seq, waiter))
                if not entry.executed_in_ixu:
                    # Completing producers broadcast their tag into the
                    # IQ, compared against every live entry.
                    iq.wakeup_broadcasts += 1
                    iq.wakeup_cam_compares += iq._live
            if entry.inst.is_branch:
                self._resolve_branch(entry)

    # ------------------------------------------------------------------
    # Memory-ordering violation: squash and replay
    # ------------------------------------------------------------------

    def _handle_violation(self, load_entry: InFlight,
                          store_entry: InFlight) -> None:
        self.stats.violations += 1
        self.store_sets.train_violation(load_entry.inst.pc,
                                        store_entry.inst.pc)
        self._squash_after(load_entry.seq - 1)
        if self._validator is not None:
            self._validator.on_violation(self, load_entry, store_entry)

    def _squash_after(self, boundary_seq: int) -> None:
        """Squash every instruction younger than ``boundary_seq`` and
        rewind the trace cursor to refetch them."""
        removed = self.rob.squash_younger_than(boundary_seq)
        pipeview = self._pipeview
        for entry in removed:  # youngest first
            entry.squashed = True
            self.stats.squashed += 1
            if entry.inst.is_store:
                self.store_sets.store_squashed(entry.inst.pc, entry)
            self.renamer.squash(entry.renamed)
            if pipeview is not None:
                pipeview.record(entry, self.cycle, flushed=True)
        self.iq.squash_younger_than(boundary_seq)
        self._scheduler_squash(boundary_seq)
        self.lsq.squash_younger_than(boundary_seq)
        for queue in (self.frontend_q, self.dispatch_q):
            for entry in queue:
                if entry.seq > boundary_seq:
                    # Renamed entries were already flush-recorded by the
                    # ROB sweep above; only pre-rename ones are new here.
                    if pipeview is not None and not entry.squashed:
                        pipeview.record(entry, self.cycle, flushed=True)
                    entry.squashed = True
        self.frontend_q = deque(
            e for e in self.frontend_q if not e.squashed
        )
        kept_dispatch = deque()
        for entry in self.dispatch_q:
            if entry.squashed:
                self._iq_reserved -= 1
            else:
                kept_dispatch.append(entry)
        self.dispatch_q = kept_dispatch
        if (self.waiting_branch is not None
                and self.waiting_branch.seq > boundary_seq):
            self.waiting_branch = None
        self._squash_hook(boundary_seq)
        if self._validator is not None:
            self._validator.on_squash(self, boundary_seq)
        self.fetch_idx = boundary_seq + 1
        self.fetch_resume_cycle = self.cycle + 1
        self._last_fetched_line = -1

    def _squash_hook(self, boundary_seq: int) -> None:
        """Hook for subclasses (FXA clears the IXU pipe)."""

    # ------------------------------------------------------------------
    # Cycle classification (read by repro.obs; never feeds back into
    # simulation)
    # ------------------------------------------------------------------

    def _classify(self) -> Tuple[str, str]:
        """Why did this cycle's slots go unused?  Returns the flat stall
        cause (repro.obs.stall) and its top-down slot-tree leaf
        (repro.obs.topdown) from one read of the post-tick state.

        Priority order: a rename stall on a full backend structure wins
        (window pressure is the actionable signal), then the ROB head's
        execution state, then front-end conditions.  The leaf splits
        what one cause folds together: ``dcache_miss`` by the ROB-head
        load's miss level, ``branch_recovery`` into decode-redirect
        bubbles (frontend) and misprediction recovery (bad speculation).
        """
        reason = self._stall_reason
        if reason is not None:
            return reason, _RENAME_STALL_LEAVES[reason]
        head = self.rob.head()
        if head is None:
            return frontend_stall(self)
        if head.done:
            # Writeback/commit-timing limited.
            return "other", "backend_bound.core.other"
        if head.mispredicted:
            return "branch_recovery", "bad_speculation.branch_recovery"
        if head.issued:
            if head.inst.is_load:
                return "dcache_miss", memory_bound_leaf(
                    self.config.hierarchy,
                    head.complete_cycle - head.issue_cycle)
            return "operand_wait", "backend_bound.core.iq_not_ready"
        if head.issue_ready < 0:
            # Still in dispatch transit.
            return "frontend_fill", "frontend_bound.queue_empty"
        return "operand_wait", "backend_bound.core.iq_not_ready"

    def _topdown_width(self) -> int:
        """Slots per cycle the top-down tree accounts (commit
        bandwidth on the backend cores)."""
        return self.config.commit_width

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _commit(self) -> int:
        rob_entries = self.rob._entries
        cycle = self.cycle
        if (not rob_entries or not rob_entries[0].done
                or rob_entries[0].complete_cycle > cycle):
            return 0
        stats = self.stats
        pipeview = self._pipeview
        release = self.renamer.release
        validator = self._validator
        hierarchy = self.hierarchy
        lsq = self.lsq
        committed = 0
        width = self.config.commit_width
        while committed < width and rob_entries:
            head = rob_entries[0]
            if not head.done or head.complete_cycle > cycle:
                break
            rob_entries.popleft()
            inst = head.inst
            if inst.is_mem:
                if inst.is_store:
                    hierarchy.store(inst.mem_addr)
                    stats.committed_stores += 1
                else:
                    stats.committed_loads += 1
                lsq.commit(head)
            elif inst.is_branch:
                stats.committed_branches += 1
            elif inst.op in _FP_ARITH:
                stats.committed_fp += 1
            renamed = head.renamed
            old_dest = renamed.old_dest
            if old_dest is not None:
                # The destination's previous mapping is dead.
                release(renamed.dest_cls, old_dest)
            if head.executed_in_ixu:
                # FXA's IXU execution profile (Figure 12) counts
                # committed instructions only.
                stats.ixu_executed += 1
                if head.ixu_category == "a":
                    stats.ixu_category_a += 1
                else:
                    stats.ixu_category_b += 1
                by_stage = stats.ixu_by_stage
                stage = head.ixu_exec_stage
                by_stage[stage] = by_stage.get(stage, 0) + 1
                if inst.is_mem:
                    stats.ixu_mem_ops += 1
                elif inst.is_branch:
                    stats.ixu_branches += 1
            if validator is not None:
                validator.on_commit(self, head)
            if pipeview is not None:
                pipeview.record(head, cycle, flushed=False)
            committed += 1
        stats.committed += committed
        self._last_commit_cycle = cycle
        return committed

    # ------------------------------------------------------------------
    # Event collection for the energy model
    # ------------------------------------------------------------------

    def snapshot_events(self) -> EventCounts:
        """The shared counters (``CoreBase.snapshot_events``) plus the
        rename, IQ, LSQ, ROB and OXU bypass counts."""
        events = super().snapshot_events()
        iq = self.iq
        events.iq_dispatches = iq.dispatches
        events.iq_issues = iq.issues
        events.iq_wakeup_broadcasts = iq.wakeup_broadcasts
        events.iq_cam_compares = iq.wakeup_cam_compares
        lsq_stats = self.lsq.stats
        events.lsq_writes = lsq_stats.writes
        events.lsq_searches = lsq_stats.searches
        events.lsq_omitted_writes = lsq_stats.omitted_load_writes
        events.lsq_omitted_searches = lsq_stats.omitted_violation_searches
        renamer = self.renamer
        prf = renamer.prf
        events.prf_reads = sum(p.reads for p in prf.values())
        events.prf_writes = sum(p.writes for p in prf.values())
        events.scoreboard_reads = sum(
            s.reads for s in renamer.scoreboard.values()
        )
        events.rat_reads = sum(r.reads for r in renamer.rat.values())
        events.rat_writes = sum(r.writes for r in renamer.rat.values())
        events.rob_allocations = self.rob.allocations
        events.moves_eliminated = renamer.moves_eliminated
        events.oxu_bypass_broadcasts = self.oxu_bypass.broadcasts
        return events

    def _collect_events(self) -> None:
        super()._collect_events()
        self.stats.iq_mean_occupancy = self.iq.mean_occupancy
        self.stats.forwarded_loads = self.lsq.stats.forwarded_loads
