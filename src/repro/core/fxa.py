"""FXA: an out-of-order core with an in-order execution unit (Figure 2).

The FXA pipeline extends the conventional one with, between rename and
dispatch:

1. a **front-end register-read stage** — the PRF scoreboard is read
   first and the PRF only for available values (sequential access,
   Section III-B), which costs one extra pipeline stage;
2. the **IXU stages** — in-order FUs with a bypass network.  An
   instruction executes in the IXU the first cycle all of its operands
   are reachable (captured at register read, or bypassed from an older
   IXU-executed instruction) and a stage FU is free; otherwise it flows
   through as a NOP and dispatches to the issue queue.

Memory operations execute in the IXU only when the OXU leaves a memory
port free that cycle (OXU has priority, Section II-D3); IXU-executed
stores skip the violation search and IXU loads whose older stores have
all executed skip the LSQ write.  Branches resolved in the IXU redirect
fetch from the front end, roughly halving the misprediction penalty;
instructions that fall through to the OXU pay the IXU depth on top of
the baseline penalty (Section IV-B2).

The scoreboard is read twice per instruction (Section III-C): once
before the IXU and again at dispatch, so instructions whose producers
completed in the OXU during their IXU transit enter the IQ marked ready.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.core.base import memory_bound_leaf
from repro.core.config import CoreConfig
from repro.core.inflight import InFlight
from repro.core.ooo import OutOfOrderCore
from repro.backend import BypassNetwork
from repro.isa.opclass import FUType
from repro.ixu.pipeline import BypassRegistry


class FXACore(OutOfOrderCore):
    """Front-end execution architecture (BIG+FX / HALF+FX)."""

    def __init__(self, config: CoreConfig, obs=None, validator=None):
        if config.ixu is None:
            raise ValueError("FXACore requires an IXU configuration")
        super().__init__(config, obs, validator)
        ixu = config.ixu
        self.ixu_config = ixu
        self._track_prf_ports = True  # regread shares OXU read ports
        self.ixu_bypass = BypassNetwork()
        self._bypass_registry = BypassRegistry(
            ixu.depth, ixu.bypass_stage_limit,
            {cls: prf.entries for cls, prf in self.renamer.prf.items()},
        )
        self._regread_q: Deque[InFlight] = deque()
        self._regread_limit = 2 * config.rename_width
        self._ixu_skips_branches = not ixu.execute_branches
        self._ixu_skips_mem = not ixu.execute_mem_ops
        # The IXU pipe as a ring of per-stage groups, each in program
        # order: _ixu_ring[s] holds stage s, and the extra last slot the
        # group that left the pipe last cycle and dispatches this one.
        # One rotation per unstalled cycle moves every group a stage on.
        self._ixu_ring: List[List[InFlight]] = [
            [] for _ in range(ixu.depth + 1)
        ]
        self._ixu_depth = ixu.depth
        self._ixu_occupancy = 0               # entries in stages 0..d-1
        self._ixu_exec_count = 0              # includes squashed replays
        self._ixu_mem_exec_count = 0
        self._ixu_bypass_operand_hits = 0     # operands taken off the
        #                                       IXU bypass network

    # ------------------------------------------------------------------
    # Rename plumbing: no IQ reservation; stall on front-end backlog.
    # ------------------------------------------------------------------

    def _iq_slot_available(self, entry: InFlight) -> bool:
        # The IQ is checked at IXU exit; rename stalls only when the
        # register-read stage backs up (i.e. the IXU pipe is stalled).
        return len(self._regread_q) < self._regread_limit

    def _after_rename(self, entry: InFlight) -> None:
        # Register read is next cycle: dispatch runs before rename in a
        # tick, so every queued entry is due when the stage next runs.
        self._regread_q.append(entry)

    # ------------------------------------------------------------------
    # The dispatch phase runs the whole front-end execution pipeline.
    # ------------------------------------------------------------------

    def _dispatch(self) -> int:
        """Drain the exit group, run the IXU stages, rotate the ring and
        read registers into the new stage 0.

        FXA adds no event-horizon threshold.  An exit group, a stage
        group or a register-read entry is due on the next tick, and the
        tick that queued it was active, so no fast-forward jump can pass
        it.  A pipe stalled on a full issue queue unblocks only through
        an issue, which needs a wake-up or completion that the base
        horizon covers.
        """
        ring = self._ixu_ring
        exited = ring[-1]
        active = False
        if exited:
            before = len(exited)
            if not self._drain_exit_group(exited):
                return 1 if len(exited) != before else 0
            active = True
        if self._ixu_occupancy:
            self._run_ixu_stages()
            # The deepest stage becomes the exit group; the drained exit
            # slot comes round as the new, empty stage 0.
            ring.insert(0, ring.pop())
            self._ixu_occupancy -= len(ring[-1])
            active = True
        if self._regread_q:
            self._enter_pipe(ring[0])
            active = True
        return 1 if active else 0

    def _drain_exit_group(self, group: List[InFlight]) -> bool:
        """Dispatch the group that left the IXU last cycle.

        IXU-executed entries only take their dispatch slot; the rest
        enter the issue queue.  A group holds at most ``rename_width``
        entries (the most that enter the pipe per cycle), so the dispatch
        width never binds.  Returns False when the IQ is full: the group
        keeps its undispatched entries and the whole pipe holds.
        """
        cycle = self.cycle
        iq = self.iq
        room = iq.free
        iq_dispatch = iq.dispatch
        schedule = self._schedule_entry
        scoreboard = self.renamer.scoreboard
        issue_ready = cycle + self.config.dispatch_to_issue
        for entry in group:
            if entry.executed_in_ixu:
                continue
            if not room:
                del group[:group.index(entry)]
                return False  # structural stall: hold the whole pipe
            room -= 1
            # Second scoreboard read (Section III-C): operands that became
            # ready in the OXU during IXU transit dispatch as ready.
            for cls, _preg in entry.renamed.srcs:
                scoreboard[cls].reads += 1
            entry.iq_cycle = cycle
            # issue_ready is final before dispatch: the wakeup engine
            # folds it into the entry's wake cycle on registration.
            entry.issue_ready = issue_ready
            iq_dispatch(entry)
            schedule(entry)
        group.clear()
        return True

    def _run_ixu_stages(self) -> None:
        """One cycle of IXU execution attempts.

        Stages run deepest first and each stage's group in program
        order, i.e. oldest first: the memory-port and LSQ checks depend
        on that order.  An entry executes the first cycle all of its
        uncaptured operands are reachable on the bypass network and a
        stage FU is free.  Static gates (op class, branch/mem config)
        were resolved into ``ixu_eligible`` at register read.
        """
        cycle = self.cycle
        ring = self._ixu_ring
        stage_fus = self.ixu_config.stage_fus
        depth = self._ixu_depth
        registry = self._bypass_registry
        available = registry.available
        record = registry.record
        lsq = self.lsq
        mem_port = self.fu[FUType.MEM]
        execute = self._execute
        executed = mem_executed = bypassed = broadcasts = 0
        for pos in range(depth - 1, -1, -1):
            free = stage_fus[pos]  # this stage's FUs left this cycle
            if not free:
                continue
            for entry in ring[pos]:
                if (entry.executed_in_ixu or not entry.ixu_eligible
                        or entry.squashed):
                    continue
                uncaptured = entry.ixu_uncaptured
                if uncaptured:
                    reachable = True
                    for cls, preg in uncaptured:
                        if not available(cls, preg, cycle, pos):
                            reachable = False
                            break
                    if not reachable:
                        continue
                    category = "b"
                else:
                    category = "a"
                inst = entry.inst
                if inst.is_mem:
                    if inst.is_load:
                        if not self._load_dependence_clear(entry):
                            continue
                    elif lsq.has_younger_executed_load(entry.seq):
                        # Omission 1's premise fails: a younger load
                        # already executed (it beat this store through
                        # the IXU, or issued from the OXU), so the store
                        # must run its violation search in the OXU.
                        continue
                    # A stage FU, then a memory port the OXU left free
                    # (the OXU issued earlier this cycle, giving it
                    # priority); a refused port still spends the FU.
                    free -= 1
                    if not mem_port.try_issue(inst.op, cycle):
                        if not free:
                            break
                        continue
                    mem_executed += 1
                else:
                    free -= 1
                entry.executed_in_ixu = True
                entry.ixu_exec_cycle = cycle
                entry.ixu_exec_stage = pos
                entry.ixu_category = category
                if uncaptured:
                    bypassed += len(uncaptured)
                executed += 1
                execute(entry, cycle, True)
                # The result reaches the PRF only after the producer
                # exits the IXU (paper Section II-B), not when it becomes
                # bypassable.
                complete = entry.complete_cycle
                exit_cycle = cycle + depth - pos
                entry.written_cycle = (
                    complete if complete > exit_cycle else exit_cycle) + 1
                renamed = entry.renamed
                if renamed.dest is not None:
                    broadcasts += 1
                    record(renamed.dest_cls, renamed.dest, entry,
                           cycle, pos, complete)
                if not free:
                    break
        self._ixu_exec_count += executed
        self._ixu_mem_exec_count += mem_executed
        self._ixu_bypass_operand_hits += bypassed
        self.ixu_bypass.broadcasts += broadcasts

    def _enter_pipe(self, group: List[InFlight]) -> None:
        """Register-read stage: capture available operands, enter stage 0."""
        regread_q = self._regread_q
        cycle = self.cycle
        scoreboard = self.renamer.scoreboard
        prf = self.renamer.prf
        ports = self.config.prf_read_ports
        port_cycle, claimed = self._prf_ports
        if port_cycle != cycle:
            claimed = 0
        skips_branches = self._ixu_skips_branches
        skips_mem = self._ixu_skips_mem
        gated = skips_branches or skips_mem
        entering = min(len(regread_q), self.config.rename_width)
        popleft = regread_q.popleft
        append = group.append
        for _ in range(entering):
            entry = popleft()
            uncaptured = ()
            for src in entry.renamed.srcs:
                # Sequential scoreboard-then-PRF access (Section III-B):
                # the PRF is read only for available values, and only
                # through a shared port the OXU left free this cycle
                # (OXU priority, Section II-A).  A value missed here can
                # still arrive via IXU bypassing or the issue queue.
                cls, preg = src
                board = scoreboard[cls]
                board.reads += 1
                if board._written[preg] <= cycle and claimed < ports:
                    prf[cls].reads += 1
                    claimed += 1
                else:
                    uncaptured += (src,)
            entry.ixu_uncaptured = uncaptured
            inst = entry.inst
            entry.ixu_eligible = inst.ixu_eligible and not (gated and (
                (skips_branches and inst.is_branch)
                or (skips_mem and inst.is_mem)
            ))
            append(entry)
        self._prf_ports = (cycle, claimed)
        self._ixu_occupancy += entering

    # ------------------------------------------------------------------
    # Hooks into the base pipeline
    # ------------------------------------------------------------------

    def _squash_hook(self, boundary_seq: int) -> None:
        # Every front-end entry holds a ROB slot, so the ROB sweep has
        # already marked (and flush-recorded) the squashed ones.
        self._regread_q = deque(
            e for e in self._regread_q if not e.squashed
        )
        ring = self._ixu_ring
        for index, group in enumerate(ring):
            ring[index] = [e for e in group if not e.squashed]
        self._ixu_occupancy = sum(map(len, ring)) - len(ring[-1])

    def _classify(self) -> Tuple[str, str]:
        """IXU-executed entries never dispatch into the IQ, so the base
        classification reports a not-done IXU head as ``frontend_fill``
        (``issue_ready`` stays unset).  Its completion is scheduled,
        though: the leaf names what it actually waits on — the memory
        sub-tree for loads, operand latency otherwise.  The cause stays
        ``frontend_fill``, which is why the hook returns both values:
        those leaves are also reached from ``dcache_miss`` and
        ``operand_wait``, so no leaf->cause map could rebuild the stall
        table."""
        cause, leaf = super()._classify()
        if cause == "frontend_fill":
            head = self.rob.head()
            if (head is not None and not head.done
                    and head.executed_in_ixu):
                if head.inst.is_load:
                    return cause, memory_bound_leaf(
                        self.config.hierarchy,
                        head.complete_cycle - head.issue_cycle)
                return cause, "backend_bound.core.iq_not_ready"
        return cause, leaf

    def snapshot_events(self):
        events = super().snapshot_events()
        events.ixu_ops = self._ixu_exec_count
        events.ixu_mem_ops = self._ixu_mem_exec_count
        events.ixu_bypass_broadcasts = self.ixu_bypass.broadcasts
        return events
