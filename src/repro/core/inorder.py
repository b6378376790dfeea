"""Cycle-level in-order superscalar core (the LITTLE model).

A dual-issue, scoreboarded in-order pipeline after Cortex-A53: no rename,
no issue queue, no load/store queue — which is precisely why its energy
per instruction is the lowest of all models (paper Section VI-I).  Issue
stalls at the oldest not-ready instruction; a small store buffer provides
store-to-load forwarding (memory ordering is trivially maintained because
memory operations issue in program order).  The front end is the one
every family shares (:mod:`repro.core.base`), at LITTLE's width and
depth; its fetch always stops at a taken branch.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.backend import BypassNetwork
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
from repro.core.kernel import DEADLOCK_LIMIT
from repro.core.stats import CoreStats, EventCounts
from repro.isa.instruction import DynInst
from repro.isa.opclass import OpClass
from repro.isa.registers import NUM_FP_REGS, NUM_INT_REGS

#: Store-buffer entries kept for forwarding.
STORE_BUFFER_DEPTH = 8

#: 1-cycle integer ops the late-ALU slot may dual-issue.
_SIMPLE_INT = frozenset(
    {OpClass.INT_ALU, OpClass.BR_COND, OpClass.BR_UNCOND}
)


class InOrderCore(CoreBase):
    """In-order superscalar (LITTLE of Table I).

    Takes the :class:`~repro.core.base.CoreBase` arguments.  Fetched
    entries wait in the front-end queue until their delivery cycle
    (``fetch_to_rename`` after fetch), then issue in program order.
    """

    CORE_TYPE = "inorder"
    #: A short in-order pipe flushes little wrong-path work.
    WRONGPATH_SHARE = 0.25

    def __init__(self, config: CoreConfig, obs=None, validator=None):
        super().__init__(config, obs, validator)
        self.bypass = BypassNetwork()
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
        self._last_issue_cycle = 0
        self._store_buffer: OrderedDict = OrderedDict()
        self._final_cycle = 0
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
        self._attach_observers()

    # ------------------------------------------------------------------

    def run(self, trace: List[DynInst],
            max_cycles: Optional[int] = None) -> CoreStats:
        """Simulate ``trace`` to completion and return statistics."""
        self.trace = trace
        self._max_cycles = max_cycles  # clamps the fast-forward jump
        trace_len = len(trace)
        while self.fetch_idx < trace_len or self.frontend_q:
            if max_cycles is not None and self.cycle >= max_cycles:
                break
            self._tick()
            if self.cycle - self._last_issue_cycle > DEADLOCK_LIMIT:
                raise SimulationError(
                    f"{self.config.name}: no issue for {DEADLOCK_LIMIT} "
                    f"cycles at cycle {self.cycle}"
                )
        return self._finish_run(max(self.cycle, self._final_cycle))

    def _tick(self) -> None:
        completion_cycles = self._completion_cycles
        quiet = not completion_cycles or completion_cycles[0] > self.cycle
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
        """Earliest future cycle at which any state can change: the
        shared thresholds (``_base_horizon``), then the front-end queue
        head.

        Every future register arrival is also a pending completion, so
        the completion calendar alone covers operand waits; the head-of-
        queue thresholds keep the horizon tight on issue-latency and
        redirect bubbles.
        """
        cycle = self.cycle
        horizon = self._base_horizon()
        if self.frontend_q:
            head = self.frontend_q[0]
            ready = head.deliver_cycle
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
    # In-order issue
    # ------------------------------------------------------------------

    def _issue(self) -> int:
        frontend_q = self.frontend_q
        if not frontend_q:
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
        while frontend_q and issued < width:
            entry = frontend_q[0]
            if entry.deliver_cycle > cycle:
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
            frontend_q.popleft()
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
            self.bypass.broadcasts += 1
        self._schedule_completion(entry, complete)
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
        for entry in self._due_completions():
            entry.done = True
            if pipeview is not None:
                pipeview.record(entry, self.cycle, flushed=False)
            if entry.inst.is_branch:
                self._resolve_branch(entry)

    # ------------------------------------------------------------------
    # Cycle classification (read by repro.obs)
    # ------------------------------------------------------------------

    def _classify(self) -> Tuple[str, str]:
        """Why did this cycle issue nothing?  The flat stall cause and
        its slot-tree leaf (see ``OutOfOrderCore._classify``).  A
        load-operand stall's leaf is the blocking load's miss level,
        from its frozen total latency; an FU structural conflict (head
        due, operands ready, pool refused) is ``fu_port``."""
        entry = self.frontend_q[0] if self.frontend_q else None
        if entry is not None and entry.deliver_cycle <= self.cycle:
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
        """The shared counters (``CoreBase.snapshot_events``) plus the
        architectural register file and bypass counts.  Mid-run the
        reported drain-extended cycle count is not known yet, so
        ``cycles`` falls back to the live tick."""
        events = super().snapshot_events()
        events.cycles = self.stats.cycles or self.cycle
        events.prf_reads = self._rf_reads
        events.prf_writes = self._rf_writes
        events.oxu_bypass_broadcasts = self.bypass.broadcasts
        return events
