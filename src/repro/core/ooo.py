"""Cycle-level out-of-order superscalar core (Figure 1 baseline).

Trace-driven model of the conventional physical-register-file superscalar
the paper compares against (BIG / HALF).  Key mechanisms:

* Fetch with g-share+BTB+RAS prediction; a misprediction stops fetch until
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
``_charge_wrongpath``) so the energy comparison against the in-order core
keeps the paper's Figure 8b shape.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.backend import (
    BypassNetwork,
    FUPool,
    IssueQueue,
    LoadStoreQueue,
    ReorderBuffer,
    StoreSetPredictor,
)
from repro.branch import BranchPredictor
from repro.core import kernel
from repro.core.config import CoreConfig
from repro.core.inflight import InFlight
from repro.core.kernel import DEADLOCK_LIMIT, NO_EVENT
from repro.core.stats import CoreStats, EventCounts
from repro.isa.instruction import DynInst
from repro.isa.opclass import FUType, FU_FOR_OPCLASS, LATENCY, OpClass
from repro.mem.hierarchy import CacheHierarchy
from repro.rename.prf import NEVER

#: FP arithmetic classes the commit stage counts (not FP loads/stores).
_FP_ARITH = frozenset({OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV})

#: Slot-tree leaf of each rename stall (see ``_classify``).
_RENAME_STALL_LEAVES = {
    "iq_full": "backend_bound.core.iq_full",
    "rob_full": "backend_bound.core.rob_full",
    "lsq_full": "backend_bound.core.lsq_full",
    "prf_full": "backend_bound.core.prf_full",
}


def memory_bound_leaf(hier, wait: int) -> str:
    """Bucket a stalled load by its *frozen* total latency (complete -
    issue cycle, never the remaining wait, which would diverge between
    serial ticks and fast-forwarded gaps) into the memory sub-tree.
    The thresholds mirror CacheHierarchy's access results (+1 covers
    the issue->execute cycle): L1 hit <= 1+l1, L2 hit <= 1+l1+l2, else
    DRAM.  Store-forward hits (latency 1) land in l1d_bound."""
    if wait <= 1 + hier.l1_latency:
        return "backend_bound.memory.l1d_bound"
    if wait <= 1 + hier.l1_latency + hier.l2_latency:
        return "backend_bound.memory.l2_bound"
    return "backend_bound.memory.dram_bound"


def frontend_stall(core) -> Tuple[str, str]:
    """Classify a stall no back-end instruction is to blame for (the
    tail of every family's ``_classify``): the front end is waiting on
    a branch, an L1I refill or a decode redirect, or has nothing to
    deliver."""
    if core.waiting_branch is not None:
        return "branch_recovery", "bad_speculation.branch_recovery"
    if core.cycle < core.fetch_resume_cycle:
        kind = core._fetch_stall_kind
        if kind == "icache":
            return "icache_miss", "frontend_bound.icache_miss"
        if kind == "redirect":
            return "branch_recovery", "frontend_bound.redirect"
        return "branch_recovery", "bad_speculation.branch_recovery"
    return "frontend_fill", "frontend_bound.queue_empty"


class SimulationError(RuntimeError):
    """The pipeline wedged (a model bug, surfaced loudly)."""


class OutOfOrderCore:
    """Conventional out-of-order superscalar (BIG/HALF of Table I).

    Args:
        config: Table I parameters for this model.
        obs: Optional :class:`~repro.obs.Observability` bundle; when
            None (the default) the pipeline pays one ``is None`` test
            per cycle and collects nothing.
        validator: Optional :class:`~repro.validate.Validator`; same
            contract as ``obs`` — None (the default) costs one ``is
            None`` test per hook site and checks nothing.
    """

    def __init__(self, config: CoreConfig, obs=None, validator=None):
        if config.core_type != "ooo":
            raise ValueError("OutOfOrderCore requires an 'ooo' config")
        self.config = config
        self.predictor = BranchPredictor(
            pht_entries=config.pht_entries,
            btb_entries=config.btb_entries,
            ras_depth=config.ras_depth,
            kind=config.predictor_kind,
        )
        self.hierarchy = CacheHierarchy(config.hierarchy)
        # Renamer import is local to avoid a cycle with repro.rename docs.
        from repro.rename import Renamer

        self.renamer = Renamer(config.int_prf_entries,
                               config.fp_prf_entries)
        self.rob = ReorderBuffer(config.rob_entries)
        self.iq = IssueQueue(config.iq_entries, config.issue_width)
        self.lsq = LoadStoreQueue(config.lq_entries, config.sq_entries)
        self.store_sets = StoreSetPredictor()
        self.fu = {
            FUType.INT: FUPool(FUType.INT, config.fu_int),
            FUType.MEM: FUPool(FUType.MEM, config.fu_mem),
            FUType.FP: FUPool(FUType.FP, config.fu_fp),
        }
        self.oxu_bypass = BypassNetwork("oxu", config.total_oxu_fus)
        self.stats = CoreStats(model=config.name)
        # Fast-forward kernel state (see repro.core.kernel).  The PRF
        # ready lists are prebound per class once: they are mutated in
        # place and never rebound, so rename can pair each source preg
        # with its list for flat-column operand checks.
        self._ff = kernel.fastforward_enabled()
        self._ff_skipped = 0  # cycles jumped, not ticked
        self._max_cycles: Optional[int] = None
        self._ready_lists = {
            cls: prf.ready_cycles for cls, prf in self.renamer.prf.items()
        }
        # Pipeline state.
        self.cycle = 0
        self.trace: List[DynInst] = []
        self.fetch_idx = 0
        self.fetch_resume_cycle = 0
        self.waiting_branch: Optional[InFlight] = None
        self.rename_q: Deque[InFlight] = deque()
        self.dispatch_q: Deque[InFlight] = deque()
        self._completions: List[Tuple[int, int, InFlight]] = []
        self._completion_counter = 0
        # Event-driven wakeup (see _schedule_entry): entries whose
        # operand-arrival cycles are all known sit in the wake heap
        # keyed (wake_cycle, seq); entries waiting on an unscheduled
        # producer sit in per-preg waiter lists until the producer's
        # completion reveals its arrival cycle.  Woken entries move to
        # the age-ordered ready list the select loop scans — the loop
        # never touches entries that cannot issue yet.
        self._wake_heap: List[Tuple[int, int, InFlight]] = []
        self._ready_entries: List[Tuple[int, InFlight]] = []
        self._iq_waiters: Dict[Tuple, List[InFlight]] = {}
        self._last_fetched_line = -1
        self._last_commit_cycle = 0
        self._iq_reserved = 0
        # PRF read-port usage per cycle (shared with the IXU in FXA;
        # the OXU issues first each cycle and therefore has priority).
        self._prf_port_use: Dict[int, int] = {}
        # Only FXA consumes the per-cycle port ledger (its front-end
        # register-read competes with the OXU for shared read ports);
        # the plain OoO and clustered cores skip the bookkeeping.
        self._track_prf_ports = False
        # Observability (stall attribution state is kept even when obs
        # is off: the stores sit on cold paths and cost nothing).
        self._obs = obs
        self._pipeview = obs.pipeview if obs is not None else None
        self._stall_reason: Optional[str] = None
        self._fetch_stall_kind = ""
        if obs is not None:
            obs.attach(self)
        self._validator = validator
        if validator is not None:
            validator.attach(self)

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
        while self.fetch_idx < trace_len or rob_entries or self.rename_q:
            if max_cycles is not None and self.cycle >= max_cycles:
                break
            self._tick()
            if self.cycle - self._last_commit_cycle > DEADLOCK_LIMIT:
                raise SimulationError(
                    f"{self.config.name}: no commit for "
                    f"{DEADLOCK_LIMIT} cycles at cycle {self.cycle} "
                    f"(head={self.rob.head()!r})"
                )
        self.stats.cycles = self.cycle
        self._collect_events()
        if self._obs is not None:
            self._obs.finalize(self)
        if self._validator is not None:
            self._validator.finalize(self)
        return self.stats

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        # Each stage reports whether it moved any state; a tick where
        # nothing moved is provably repeatable and may fast-forward.
        completions = self._completions
        quiet = not completions or completions[0][0] > self.cycle
        if not quiet:
            self._process_completions()
        committed = self._commit()
        issued = self._issue()
        dispatched = self._dispatch()
        renamed = self._rename()
        fetch_moved = self._fetch()
        self.iq.sample_occupancy()
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
        """Earliest future cycle at which any pipeline state can change.

        Only consulted on idle ticks.  Conservative thresholds (those
        that merely *might* unblock a stage) are always safe: they only
        shorten the jump.
        """
        cycle = self.cycle
        horizon = NO_EVENT
        completions = self._completions
        if completions:
            horizon = completions[0][0]
        resume = self.fetch_resume_cycle
        if cycle <= resume < horizon:
            horizon = resume
        fill = self.hierarchy.fill_horizon(cycle)
        if fill is not None and fill < horizon:
            horizon = fill
        if self.rename_q:
            ready = self.rename_q[0].rename_ready
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
        event already covered by the completion heap.  Entries in the
        ready list are ready *now* but blocked structurally; their
        unblocking likewise requires another covered event, so they
        contribute no threshold (this matches the former full scan's
        ``cycle <= threshold`` guard).
        """
        heap = self._wake_heap
        heappop = heapq.heappop
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
    # Fetch
    # ------------------------------------------------------------------

    def _fetch(self) -> bool:
        if self.cycle < self.fetch_resume_cycle:
            return False
        if self.waiting_branch is not None:
            return False
        config = self.config
        cycle = self.cycle
        trace = self.trace
        trace_len = len(trace)
        rename_q = self.rename_q
        fetch_width = config.fetch_width
        queue_depth = config.frontend_queue_depth
        line_bytes = config.hierarchy.line_bytes
        rename_lat = config.fetch_to_rename
        stats = self.stats
        fetch_idx = self.fetch_idx
        fetched = 0
        while (
            fetched < fetch_width
            and fetch_idx < trace_len
            and len(rename_q) < queue_depth
        ):
            inst = trace[fetch_idx]
            line = inst.pc // line_bytes
            if line != self._last_fetched_line:
                result = self.hierarchy.fetch(inst.pc)
                self._last_fetched_line = line
                if not result.l1_hit:
                    # Refill in flight: resume once the line arrives.
                    self.fetch_idx = fetch_idx
                    stats.fetched += fetched
                    self.fetch_resume_cycle = cycle + result.latency
                    self.hierarchy.note_refill(self.fetch_resume_cycle)
                    self._fetch_stall_kind = "icache"
                    return True
            entry = InFlight(inst, fetch_cycle=cycle)
            entry.rename_ready = cycle + rename_lat
            stop_after = False
            if inst.is_branch:
                stats.branches += 1
                entry.prediction = self.predictor.predict(inst)
                if not entry.prediction.correct_for(inst):
                    if (entry.prediction.taken and inst.taken
                            and entry.prediction.target is None):
                        # Direction right, BTB cold: the decoder computes
                        # the target — a short front-end redirect.
                        entry.btb_redirect = True
                        self.stats.btb_redirects += 1
                        self.fetch_resume_cycle = (
                            cycle + config.decode_redirect_latency
                        )
                        self._fetch_stall_kind = "redirect"
                    else:
                        entry.mispredicted = True
                        self.waiting_branch = entry
                    stop_after = True
                elif inst.taken and config.fetch_breaks_on_taken:
                    # Simple fetch units stop at a taken branch.
                    stop_after = True
            rename_q.append(entry)
            fetch_idx += 1
            fetched += 1
            if stop_after:
                break
        self.fetch_idx = fetch_idx
        stats.fetched += fetched
        return fetched > 0

    # ------------------------------------------------------------------
    # Rename
    # ------------------------------------------------------------------

    def _rename(self) -> int:
        self._stall_reason = None
        rename_q = self.rename_q
        if not rename_q:
            return 0
        cycle = self.cycle
        width = self.config.rename_width
        validator = self._validator
        ready_lists = self._ready_lists
        rob = self.rob
        rob_entries = rob._entries
        renamed = 0
        while rename_q and renamed < width:
            entry = rename_q[0]
            if entry.rename_ready > cycle:
                break
            eliminable = self._is_eliminable(entry.inst)
            if not self._rename_resources_ready(entry, eliminable):
                break
            rename_q.popleft()
            if eliminable:
                # RENO: the move becomes a rename-table update; it still
                # takes a ROB slot and commits, but never executes.
                entry.renamed = self.renamer.rename_move(entry.inst)
                entry.rename_cycle = cycle
                entry.complete_cycle = cycle
                if validator is not None:
                    validator.on_rename(self, entry)
                rob_entries.append(entry)
                rob.allocations += 1
                self._completion_counter += 1
                heapq.heappush(
                    self._completions,
                    (cycle, self._completion_counter, entry),
                )
                renamed += 1
                continue
            renamed_ops = self.renamer.rename(entry.inst)
            entry.renamed = renamed_ops
            entry.src_pairs = tuple(
                (ready_lists[cls], cls, preg)
                for cls, preg in renamed_ops.srcs
            )
            entry.rename_cycle = cycle
            if validator is not None:
                validator.on_rename(self, entry)
            rob_entries.append(entry)
            rob.allocations += 1
            inst = entry.inst
            if inst.is_load:
                self.lsq.insert_load(entry)
                # LFST is read in program order at rename: it holds the
                # youngest *older* store of the load's store set.
                entry.mem_dep = self.store_sets.load_dependency(inst.pc)
            elif inst.is_store:
                self.lsq.insert_store(entry)
                self.store_sets.store_dispatched(inst.pc, entry)
            self._after_rename(entry)
            renamed += 1
        return renamed

    def _is_eliminable(self, inst: DynInst) -> bool:
        """Is this a move the RENO extension can eliminate at rename?

        The op-class identity test leads: it rejects almost every
        instruction before any config attribute is touched.
        """
        return (
            inst.op is OpClass.MOV
            and self.config.move_elimination
            and inst.dest is not None
            and len(inst.srcs) == 1
            and inst.dest.cls is inst.srcs[0].cls
        )

    def _rename_resources_ready(self, entry: InFlight,
                                 eliminable: bool) -> bool:
        """Check every resource rename must secure for ``entry``.

        A failed check records which structure blocked rename this
        cycle (``_stall_reason``); the stall attributor charges the
        cycle to it when nothing commits.
        """
        inst = entry.inst
        rob = self.rob
        rob_full = len(rob._entries) >= rob.capacity
        if eliminable:
            if rob_full:  # needs no register, IQ or LSQ slot
                self._stall_reason = "rob_full"
                return False
            return True
        dest = inst.dest
        if (dest is not None
                and not self.renamer.free[dest.cls]._free):
            self._stall_reason = "prf_full"
            return False
        if rob_full:
            self._stall_reason = "rob_full"
            return False
        if inst.is_mem:
            lsq = self.lsq
            if inst.is_load:
                if not lsq.loads_free:
                    self._stall_reason = "lsq_full"
                    return False
            elif not lsq.stores_free:
                self._stall_reason = "lsq_full"
                return False
        if not self._iq_slot_available(entry):
            self._stall_reason = "iq_full"
            return False
        return True

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
        if not dispatch_q or dispatch_q[0].dispatch_cycle > self.cycle:
            return 0
        config = self.config
        cycle = self.cycle
        width = config.rename_width
        issue_lat = config.dispatch_to_issue
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
            self._iq_reserved -= 1
            entry.iq_cycle = cycle
            # issue_ready is final before dispatch: the wakeup engine
            # folds it into the entry's wake cycle on registration.
            entry.issue_ready = cycle + issue_lat
            iq_dispatch(entry)
            schedule(entry)
            dispatched += 1
        return moved

    # ------------------------------------------------------------------
    # Issue / execute
    # ------------------------------------------------------------------

    def _entry_wake(self, entry: InFlight) -> int:
        """Earliest cycle ``entry`` can issue, given every source
        arrival is known (all below ``NEVER``)."""
        wake = entry.issue_ready
        for ready_cycles, _cls, preg in entry.src_pairs:
            arrival = ready_cycles[preg]
            if arrival > wake:
                wake = arrival
        return wake

    def _schedule_entry(self, entry: InFlight) -> None:
        """Register a freshly-dispatched entry with the wakeup engine.

        If every source's arrival cycle is already known the entry goes
        straight onto the wake heap; otherwise it parks in the waiter
        list of each unscheduled source and is re-examined when that
        producer's completion announces the arrival cycle.
        """
        waiting = 0
        waiters = self._iq_waiters
        for ready_cycles, cls, preg in entry.src_pairs:
            if ready_cycles[preg] >= NEVER:
                bucket = waiters.get((cls, preg))
                if bucket is None:
                    waiters[(cls, preg)] = [entry]
                else:
                    bucket.append(entry)
                waiting += 1
        entry.wait_count = waiting
        if not waiting:
            heapq.heappush(
                self._wake_heap,
                (self._entry_wake(entry), entry.seq, entry),
            )

    def _wake_dependents(self, cls, preg: int) -> None:
        """A producer's arrival cycle is now known: re-examine waiters."""
        bucket = self._iq_waiters.pop((cls, preg), None)
        if bucket is None:
            return
        heappush = heapq.heappush
        wake_heap = self._wake_heap
        for entry in bucket:
            if entry.squashed or entry.issued:
                continue
            entry.wait_count -= 1
            if not entry.wait_count:
                heappush(
                    wake_heap,
                    (self._entry_wake(entry), entry.seq, entry),
                )

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
                heapq.heapify(self._wake_heap)
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
            heappop = heapq.heappop
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
        for _, entry in ready:
            if entry.squashed or entry.issued:
                continue
            inst = entry.inst
            if inst.is_load and not self._load_dependence_clear(entry):
                continue
            if not fu[inst.fu_type].try_issue(inst.op, cycle):
                continue
            iq.note_issue()
            entry.issued = True
            issued += 1
            self._execute(entry, cycle, in_ixu=False)
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
        if not in_ixu and entry.renamed is not None:
            # Register-read stage after issue (counts PRF read ports).
            srcs = entry.renamed.srcs
            if srcs:
                prf = self.renamer.prf
                if self._track_prf_ports:
                    port_use = self._prf_port_use
                    claimed = port_use.get(cycle, 0)
                    for cls, preg in srcs:
                        prf[cls].read(preg)
                        claimed += 1
                    port_use[cycle] = claimed
                    if len(port_use) > 64:
                        self._prf_port_use = {
                            c: n for c, n in port_use.items()
                            if c >= cycle
                        }
                else:
                    for cls, preg in srcs:
                        prf[cls].reads += 1
        if inst.is_load:
            forwarded = self.lsq.execute_load(entry, in_ixu)
            if forwarded:
                self.stats.forwarded_loads += 1
                latency = 2  # AGU + store-queue forward
            else:
                result = self.hierarchy.load(inst.mem_addr)
                latency = 1 + result.latency
            complete = cycle + latency
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
        renamed = entry.renamed
        if renamed is not None and renamed.dest is not None:
            self._bypass_network(in_ixu).broadcast()
        counter = self._completion_counter + 1
        self._completion_counter = counter
        heapq.heappush(self._completions, (complete, counter, entry))

    def _bypass_network(self, in_ixu: bool) -> BypassNetwork:
        return self.oxu_bypass

    # ------------------------------------------------------------------
    # Completion / writeback
    # ------------------------------------------------------------------

    def _process_completions(self) -> None:
        completions = self._completions
        if not completions or completions[0][0] > self.cycle:
            return
        cycle = self.cycle
        heappop = heapq.heappop
        prf_map = self.renamer.prf
        while completions and completions[0][0] <= cycle:
            _, _, entry = heappop(completions)
            if entry.squashed:
                continue
            entry.done = True
            renamed = entry.renamed
            if (renamed is not None and renamed.dest is not None
                    and not renamed.eliminated):
                dest = renamed.dest
                dest_cls = renamed.dest_cls
                # Inlined PRF mark_ready/mark_written (hot path).
                prf = prf_map[dest_cls]
                prf.ready_cycles[dest] = entry.complete_cycle
                prf.writes += 1
                prf._written[dest] = self._prf_write_cycle(entry)
                self._wake_dependents(dest_cls, dest)
                if not entry.executed_in_ixu:
                    # Completing producers broadcast their tag into the IQ.
                    self.iq.broadcast_wakeup()
            if entry.inst.is_branch:
                self._resolve_branch(entry)

    def _prf_write_cycle(self, entry: InFlight) -> int:
        """Cycle the result is readable from the PRF (writeback + 1)."""
        return entry.complete_cycle + 1

    def _resolve_branch(self, entry: InFlight) -> None:
        self.predictor.resolve(entry.inst, entry.prediction)
        if entry.mispredicted:
            self.stats.mispredictions += 1
            if entry.executed_in_ixu:
                self.stats.mispredictions_resolved_in_ixu += 1
            self._charge_wrongpath(entry)
        if self.waiting_branch is entry:
            self.waiting_branch = None
            self.fetch_resume_cycle = self.cycle + 1

    def _charge_wrongpath(self, entry: InFlight) -> None:
        """Estimate wrong-path FU work for one misprediction.

        The model fetches no wrong path, but real cores execute down it
        until resolution; the deeper/wider the window, the more flushed
        work (the reason LITTLE's FU energy is lowest in Figure 8b).  We
        charge half the issue bandwidth over the resolution window.
        """
        window = max(
            0, self.cycle - entry.fetch_cycle - self.config.fetch_to_rename
        )
        self.stats.events.wrongpath_ops += (
            0.5 * self.config.issue_width * window
        )

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
        for queue in (self.rename_q, self.dispatch_q):
            for entry in queue:
                if entry.seq > boundary_seq:
                    # Renamed entries were already flush-recorded by the
                    # ROB sweep above; only pre-rename ones are new here.
                    if pipeview is not None and not entry.squashed:
                        pipeview.record(entry, self.cycle, flushed=True)
                    entry.squashed = True
        self.rename_q = deque(
            e for e in self.rename_q if not e.squashed
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

    def _on_commit(self, entry: InFlight) -> None:
        """Hook for subclasses (FXA records IXU-execution statistics)."""

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _commit(self) -> int:
        rob_entries = self.rob._entries
        cycle = self.cycle
        stats = self.stats
        pipeview = self._pipeview
        renamer = self.renamer
        refcounts = renamer._refcount
        free_lists = renamer.free
        validator = self._validator
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
                    self.hierarchy.store(inst.mem_addr)
                    stats.committed_stores += 1
                else:
                    stats.committed_loads += 1
                self.lsq.commit(head)
            elif inst.is_branch:
                stats.committed_branches += 1
            elif inst.op in _FP_ARITH:
                stats.committed_fp += 1
            renamed = head.renamed
            old_dest = renamed.old_dest
            if renamed.dest_cls is not None and old_dest is not None:
                # Inlined Renamer.commit/_release (hot path): drop the
                # previous mapping's reference, reclaim at zero.
                refcount = refcounts[renamed.dest_cls]
                remaining = refcount[old_dest] - 1
                refcount[old_dest] = remaining
                if remaining == 0:
                    free_lists[renamed.dest_cls].release(old_dest)
                elif remaining < 0:
                    raise RuntimeError(
                        f"refcount underflow on {renamed.dest_cls} "
                        f"p{old_dest}"
                    )
            self._on_commit(head)
            if validator is not None:
                validator.on_commit(self, head)
            if pipeview is not None:
                pipeview.record(head, cycle, flushed=False)
            stats.committed += 1
            committed += 1
            self._last_commit_cycle = cycle
        return committed

    # ------------------------------------------------------------------
    # Event collection for the energy model
    # ------------------------------------------------------------------

    def snapshot_events(self) -> EventCounts:
        """Fresh :class:`EventCounts` read from the live counters.

        Callable mid-run (the timeline collector deltas successive
        snapshots at interval boundaries) as well as at the end of the
        run; each call builds a new object, so calling it twice never
        double-counts.  ``wrongpath_ops`` is the one count accumulated
        on ``stats.events`` during the run rather than on a live
        structure, so it is copied across.
        """
        events = EventCounts()
        events.cycles = self.cycle
        events.wrongpath_ops = self.stats.events.wrongpath_ops
        events.fetched = self.stats.fetched
        events.decoded = self.stats.fetched
        events.iq_dispatches = self.iq.dispatches
        events.iq_issues = self.iq.issues
        events.iq_wakeup_broadcasts = self.iq.wakeup_broadcasts
        events.iq_cam_compares = self.iq.wakeup_cam_compares
        events.lsq_writes = self.lsq.stats.writes
        events.lsq_searches = self.lsq.stats.searches
        events.lsq_omitted_writes = self.lsq.stats.omitted_load_writes
        events.lsq_omitted_searches = (
            self.lsq.stats.omitted_violation_searches
        )
        prf = self.renamer.prf
        events.prf_reads = sum(p.reads for p in prf.values())
        events.prf_writes = sum(p.writes for p in prf.values())
        events.scoreboard_reads = sum(
            s.reads for s in self.renamer.scoreboard.values()
        )
        events.rat_reads = sum(
            r.reads for r in self.renamer.rat.values()
        )
        events.rat_writes = sum(
            r.writes for r in self.renamer.rat.values()
        )
        events.rob_allocations = self.rob.allocations
        events.moves_eliminated = self.renamer.moves_eliminated
        events.fu_int_ops = self.fu[FUType.INT].executions
        events.fu_mem_ops = self.fu[FUType.MEM].executions
        events.fu_fp_ops = self.fu[FUType.FP].executions
        events.oxu_bypass_broadcasts = self.oxu_bypass.broadcasts
        events.predictor_lookups = self.predictor.lookups
        events.btb_lookups = self.predictor.lookups
        l1i, l1d, l2 = (self.hierarchy.l1i, self.hierarchy.l1d,
                        self.hierarchy.l2)
        events.l1i_accesses = l1i.stats.accesses
        events.l1i_misses = l1i.stats.misses
        events.l1d_accesses = l1d.stats.accesses
        events.l1d_misses = l1d.stats.misses
        events.l2_accesses = l2.stats.accesses
        events.l2_misses = l2.stats.misses
        events.mem_accesses = self.hierarchy.mem_accesses
        events.prefetches = self.hierarchy.prefetches
        return events

    def _collect_events(self) -> None:
        self.stats.events = self.snapshot_events()
        self.stats.iq_mean_occupancy = self.iq.mean_occupancy
        self.stats.forwarded_loads = self.lsq.stats.forwarded_loads
