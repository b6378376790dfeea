"""Cycle-level in-order superscalar core (the LITTLE model).

A dual-issue, scoreboarded in-order pipeline after Cortex-A53: no rename,
no issue queue, no load/store queue — which is precisely why its energy
per instruction is the lowest of all models (paper Section VI-I).  Issue
stalls at the oldest not-ready instruction; a small store buffer provides
store-to-load forwarding (memory ordering is trivially maintained because
memory operations issue in program order).
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.backend import BypassNetwork, FUPool
from repro.branch import BranchPredictor
from repro.core.config import CoreConfig
from repro.core.inflight import InFlight
from repro.core.stats import CoreStats, EventCounts
from repro.isa.instruction import DynInst
from repro.isa.opclass import FUType, FU_FOR_OPCLASS, LATENCY, OpClass
from repro.isa.registers import NUM_FP_REGS, NUM_INT_REGS
from repro.mem.hierarchy import CacheHierarchy

from repro.core import kernel
from repro.core.kernel import NO_EVENT
from repro.core.ooo import (
    DEADLOCK_LIMIT,
    SimulationError,
    frontend_stall,
    memory_bound_leaf,
)

#: Store-buffer entries kept for forwarding.
STORE_BUFFER_DEPTH = 8

#: 1-cycle integer ops the late-ALU slot may dual-issue.
_SIMPLE_INT = frozenset(
    {OpClass.INT_ALU, OpClass.BR_COND, OpClass.BR_UNCOND}
)

#: FP arithmetic classes counted at commit (not FP loads/stores).
_FP_ARITH = frozenset({OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV})


class InOrderCore:
    """In-order superscalar (LITTLE of Table I)."""

    def __init__(self, config: CoreConfig, obs=None, validator=None):
        if config.core_type != "inorder":
            raise ValueError("InOrderCore requires an 'inorder' config")
        self.config = config
        self.predictor = BranchPredictor(
            pht_entries=config.pht_entries,
            btb_entries=config.btb_entries,
            ras_depth=config.ras_depth,
            kind=config.predictor_kind,
        )
        self.hierarchy = CacheHierarchy(config.hierarchy)
        self.fu = {
            FUType.INT: FUPool(FUType.INT, config.fu_int),
            FUType.MEM: FUPool(FUType.MEM, config.fu_mem),
            FUType.FP: FUPool(FUType.FP, config.fu_fp),
        }
        self.bypass = BypassNetwork("inorder", config.total_oxu_fus)
        self.stats = CoreStats(model=config.name)
        # Fast-forward kernel state (see repro.core.kernel).
        self._ff = kernel.fastforward_enabled()
        self._ff_skipped = 0  # cycles jumped, not ticked
        self._max_cycles: Optional[int] = None
        # Per-tick scratch for early/late ALU pairing, holding flat
        # register indices (cleared, never reallocated, in _issue).
        self._early_results: set = set()
        # Architectural register readiness (no renaming), one slot
        # per register indexed by ``Reg.flat`` (INT 0..31, FP 32..63).
        self._reg_ready: List[int] = (
            [0] * (NUM_INT_REGS + NUM_FP_REGS)
        )
        self._rf_reads = 0
        self._rf_writes = 0
        # Pipeline state.
        self.cycle = 0
        self.trace: List[DynInst] = []
        self.fetch_idx = 0
        self.fetch_resume_cycle = 0
        self.waiting_branch: Optional[InFlight] = None
        self.issue_q: Deque[InFlight] = deque()
        self._completions: List[Tuple[int, int, InFlight]] = []
        self._completion_counter = 0
        self._last_fetched_line = -1
        self._last_issue_cycle = 0
        self._store_buffer: OrderedDict = OrderedDict()
        self._final_cycle = 0
        # Observability (free when obs is None, see repro.obs).
        self._obs = obs
        self._pipeview = obs.pipeview if obs is not None else None
        self._fetch_stall_kind = ""
        # Registers whose pending value is produced by an in-flight
        # load (distinguishes dcache stalls from ALU operand waits).
        self._load_dest: List[bool] = (
            [False] * (NUM_INT_REGS + NUM_FP_REGS)
        )
        # Total latency of the last writer of each register (frozen at
        # execute time): lets the top-down collector classify a
        # load-operand stall by miss level without consulting the
        # remaining wait, which would diverge under fast-forward.
        self._load_wait: List[int] = (
            [0] * (NUM_INT_REGS + NUM_FP_REGS)
        )
        if obs is not None:
            obs.attach(self)
        self._validator = validator
        if validator is not None:
            validator.attach(self)

    # ------------------------------------------------------------------

    def run(self, trace: List[DynInst],
            max_cycles: Optional[int] = None) -> CoreStats:
        """Simulate ``trace`` to completion and return statistics."""
        self.trace = trace
        self._max_cycles = max_cycles  # clamps the fast-forward jump
        trace_len = len(trace)
        while self.fetch_idx < trace_len or self.issue_q:
            if max_cycles is not None and self.cycle >= max_cycles:
                break
            self._tick()
            if self.cycle - self._last_issue_cycle > DEADLOCK_LIMIT:
                raise SimulationError(
                    f"{self.config.name}: no issue for {DEADLOCK_LIMIT} "
                    f"cycles at cycle {self.cycle}"
                )
        self.stats.cycles = max(self.cycle, self._final_cycle)
        self._collect_events()
        if self._obs is not None:
            self._obs.finalize(self)
        if self._validator is not None:
            self._validator.finalize(self)
        return self.stats

    def _tick(self) -> None:
        completions = self._completions
        quiet = not completions or completions[0][0] > self.cycle
        if not quiet:
            self._process_completions()
        issued = self._issue()
        fetch_moved = self._fetch()
        if self._obs is not None:
            # In-order issue is commitment: an issued instruction
            # retires, so zero-issue cycles are the stall cycles.
            self._obs.on_cycles(self, issued, 1)
        if self._validator is not None:
            self._validator.on_cycle(self, issued)
        self.cycle += 1
        if self._ff and quiet and not issued and not fetch_moved:
            kernel.advance(self, self._last_issue_cycle)

    # ------------------------------------------------------------------
    # Event horizon (fast-forward kernel)
    # ------------------------------------------------------------------

    def _event_horizon(self) -> int:
        """Earliest future cycle at which any state can change.

        Every future register arrival is also a pending completion, so
        the completion heap alone covers operand waits; the head-of-
        queue thresholds keep the horizon tight on issue-latency and
        redirect bubbles.
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
        if self.issue_q:
            head = self.issue_q[0]
            ready = head.issue_ready
            if ready >= cycle:
                if ready < horizon:
                    horizon = ready
            else:
                # Head is due but blocked on registers: stop at the
                # *earliest* pending arrival (source or WAW dest) so
                # the stall cause's first-pending-source attribution
                # stays constant across the jumped gap.
                reg_ready = self._reg_ready
                inst = head.inst
                for flat in inst.src_flats:
                    arrival = reg_ready[flat]
                    if cycle <= arrival < horizon:
                        horizon = arrival
                dest_flat = inst.dest_flat
                if dest_flat is not None:
                    arrival = reg_ready[dest_flat]
                    if cycle <= arrival < horizon:
                        horizon = arrival
        return horizon

    # ------------------------------------------------------------------
    # Fetch (mirrors the OoO front end at LITTLE's width/depth)
    # ------------------------------------------------------------------

    def _fetch(self) -> bool:
        if self.cycle < self.fetch_resume_cycle:
            return False
        if self.waiting_branch is not None:
            return False
        config = self.config
        trace = self.trace
        trace_len = len(trace)
        issue_q = self.issue_q
        line_bytes = config.hierarchy.line_bytes
        fetch_width = config.fetch_width
        queue_depth = config.frontend_queue_depth
        stats = self.stats
        cycle = self.cycle
        fetch_idx = self.fetch_idx
        issue_lat = config.fetch_to_rename
        fetched = 0
        while (
            fetched < fetch_width
            and fetch_idx < trace_len
            and len(issue_q) < queue_depth
        ):
            inst = trace[fetch_idx]
            line = inst.pc // line_bytes
            if line != self._last_fetched_line:
                result = self.hierarchy.fetch(inst.pc)
                self._last_fetched_line = line
                if not result.l1_hit:
                    self.fetch_idx = fetch_idx
                    stats.fetched += fetched
                    self.fetch_resume_cycle = cycle + result.latency
                    self.hierarchy.note_refill(self.fetch_resume_cycle)
                    self._fetch_stall_kind = "icache"
                    return True
            entry = InFlight(inst, fetch_cycle=cycle)
            entry.issue_ready = cycle + issue_lat
            stop_after = False
            if inst.is_branch:
                stats.branches += 1
                entry.prediction = self.predictor.predict(inst)
                if not entry.prediction.correct_for(inst):
                    if (entry.prediction.taken and inst.taken
                            and entry.prediction.target is None):
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
                elif inst.taken:
                    stop_after = True
            issue_q.append(entry)
            fetch_idx += 1
            fetched += 1
            if stop_after:
                break
        self.fetch_idx = fetch_idx
        stats.fetched += fetched
        return fetched > 0

    # ------------------------------------------------------------------
    # In-order issue
    # ------------------------------------------------------------------

    def _issue(self) -> int:
        issue_q = self.issue_q
        if not issue_q:
            return 0
        issued = 0
        cycle = self.cycle
        width = self.config.issue_width
        fu = self.fu
        reg_ready = self._reg_ready
        # Early/late ALU pairing (after Cortex-A53): one dependent
        # 1-cycle integer op per cycle may dual-issue behind its
        # producer, executing in the late ALU stage with an
        # early-to-late forward.
        early_results = self._early_results
        early_results.clear()
        late_slot_used = False
        while issue_q and issued < width:
            entry = issue_q[0]
            if entry.issue_ready > cycle:
                break
            inst = entry.inst
            uses_late = False
            stalled = False
            for flat in inst.src_flats:
                if reg_ready[flat] > cycle:
                    # RAW hazard: every pending source must be an early
                    # result forwardable to the late ALU slot.
                    if (late_slot_used or flat not in early_results
                            or inst.op not in _SIMPLE_INT):
                        stalled = True
                        break
                    uses_late = True
            if stalled:
                break  # RAW hazard: stall in order
            # WAW: destination's previous write must have completed.
            dest_flat = inst.dest_flat
            if dest_flat is not None and reg_ready[dest_flat] > cycle:
                break
            if not fu[inst.fu_type].try_issue(inst.op, cycle):
                break
            issue_q.popleft()
            self._rf_reads += len(inst.srcs)
            self._execute(entry, cycle)
            if uses_late:
                late_slot_used = True
            if (inst.op is OpClass.INT_ALU and dest_flat is not None
                    and inst.latency == 1):
                early_results.add(dest_flat)
            issued += 1
            self._last_issue_cycle = cycle
            if inst.is_branch and entry.mispredicted:
                break
        return issued

    def _execute(self, entry: InFlight, cycle: int) -> None:
        inst = entry.inst
        entry.issue_cycle = cycle
        if inst.is_load:
            if inst.mem_addr in self._store_buffer:
                self.stats.forwarded_loads += 1
                latency = 2
            else:
                result = self.hierarchy.load(inst.mem_addr)
                latency = 1 + result.latency
            complete = cycle + latency
        elif inst.is_store:
            self.hierarchy.store(inst.mem_addr)
            self._store_buffer[inst.mem_addr] = inst.seq
            if len(self._store_buffer) > STORE_BUFFER_DEPTH:
                self._store_buffer.popitem(last=False)
            complete = cycle + 1
        else:
            complete = cycle + inst.latency
        entry.complete_cycle = complete
        self._final_cycle = max(self._final_cycle, complete)
        flat = inst.dest_flat
        if flat is not None:
            self._reg_ready[flat] = complete
            self._load_dest[flat] = inst.is_load
            self._load_wait[flat] = complete - cycle
            self._rf_writes += 1
            self.bypass.broadcast()
        self._completion_counter += 1
        heapq.heappush(
            self._completions, (complete, self._completion_counter, entry)
        )
        # Commit accounting: in-order issue means the instruction will
        # retire; count it now and classify.
        if self._validator is not None:
            self._validator.on_commit(self, entry)
        stats = self.stats
        stats.committed += 1
        if inst.is_load:
            stats.committed_loads += 1
        elif inst.is_store:
            stats.committed_stores += 1
        elif inst.is_branch:
            stats.committed_branches += 1
        elif inst.op in _FP_ARITH:
            stats.committed_fp += 1

    # ------------------------------------------------------------------

    def _process_completions(self) -> None:
        pipeview = self._pipeview
        while self._completions and self._completions[0][0] <= self.cycle:
            _, _, entry = heapq.heappop(self._completions)
            entry.done = True
            if pipeview is not None:
                pipeview.record(entry, self.cycle, flushed=False)
            if entry.inst.is_branch:
                self.predictor.resolve(entry.inst, entry.prediction)
                if entry.mispredicted:
                    self.stats.mispredictions += 1
                    # A short in-order pipe flushes little wrong-path work.
                    window = max(
                        0, self.cycle - entry.fetch_cycle
                        - self.config.fetch_to_rename
                    )
                    self.stats.events.wrongpath_ops += (
                        0.25 * self.config.issue_width * window
                    )
                if self.waiting_branch is entry:
                    self.waiting_branch = None
                    self.fetch_resume_cycle = self.cycle + 1

    # ------------------------------------------------------------------
    # Cycle classification (read by repro.obs)
    # ------------------------------------------------------------------

    def _classify(self) -> Tuple[str, str]:
        """Why did this cycle issue nothing?  The flat stall cause and
        its slot-tree leaf (see ``OutOfOrderCore._classify``).  A
        load-operand stall's leaf is the blocking load's miss level,
        from its frozen total latency; an FU structural conflict (head
        due, operands ready, pool refused) is ``fu_port``."""
        entry = self.issue_q[0] if self.issue_q else None
        if entry is not None and entry.issue_ready <= self.cycle:
            cycle = self.cycle
            reg_ready = self._reg_ready
            for flat in entry.inst.src_flats:
                if reg_ready[flat] > cycle:
                    if self._load_dest[flat]:
                        return "dcache_miss", memory_bound_leaf(
                            self.config.hierarchy, self._load_wait[flat])
                    return "operand_wait", "backend_bound.core.iq_not_ready"
            dest_flat = entry.inst.dest_flat
            if dest_flat is not None and reg_ready[dest_flat] > cycle:
                # WAW on an in-flight writer.
                return "operand_wait", "backend_bound.core.iq_not_ready"
            return "other", "backend_bound.core.fu_port"
        return frontend_stall(self)

    def _topdown_width(self) -> int:
        """In-order issue == commit, so the slot budget is the issue
        width."""
        return self.config.issue_width

    # ------------------------------------------------------------------

    def snapshot_events(self) -> EventCounts:
        """Fresh :class:`EventCounts` from the live counters (see
        ``OutOfOrderCore.snapshot_events``).  Mid-run the reported
        drain-extended cycle count is not known yet, so ``cycles``
        falls back to the live tick."""
        events = EventCounts()
        events.cycles = self.stats.cycles or self.cycle
        events.wrongpath_ops = self.stats.events.wrongpath_ops
        events.fetched = self.stats.fetched
        events.decoded = self.stats.fetched
        events.prf_reads = self._rf_reads
        events.prf_writes = self._rf_writes
        events.fu_int_ops = self.fu[FUType.INT].executions
        events.fu_mem_ops = self.fu[FUType.MEM].executions
        events.fu_fp_ops = self.fu[FUType.FP].executions
        events.oxu_bypass_broadcasts = self.bypass.broadcasts
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
