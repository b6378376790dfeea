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

from repro.core.config import CoreConfig
from repro.core.inflight import InFlight
from repro.core.ooo import OutOfOrderCore, memory_bound_leaf
from repro.backend import BypassNetwork
from repro.isa.opclass import FUType
from repro.ixu.pipeline import BypassRegistry, StageFUUsage


class FXACore(OutOfOrderCore):
    """Front-end execution architecture (BIG+FX / HALF+FX)."""

    def __init__(self, config: CoreConfig, obs=None, validator=None):
        if config.ixu is None:
            raise ValueError("FXACore requires an IXU configuration")
        super().__init__(config, obs, validator)
        ixu = config.ixu
        self.ixu_config = ixu
        self._track_prf_ports = True  # regread shares OXU read ports
        self.ixu_bypass = BypassNetwork("ixu", ixu.total_fus)
        self._bypass_registry = BypassRegistry(
            depth=ixu.depth, stage_limit=ixu.bypass_stage_limit
        )
        self._stage_usage = StageFUUsage(ixu.stage_fus)
        self._regread_q: Deque[InFlight] = deque()
        self._ixu_pipe: List[InFlight] = []   # program order, pos 0..depth-1
        self._exit_q: Deque[InFlight] = deque()
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
        return len(self._regread_q) < 2 * self.config.rename_width

    def _after_rename(self, entry: InFlight) -> None:
        entry.dispatch_cycle = self.cycle + 1  # register-read stage
        self._regread_q.append(entry)

    # ------------------------------------------------------------------
    # The dispatch phase runs the whole front-end execution pipeline.
    # ------------------------------------------------------------------

    def _dispatch(self) -> int:
        exit_before = len(self._exit_q)
        stalled = not self._drain_exit_queue()
        active = len(self._exit_q) != exit_before
        if not stalled:
            if self._ixu_pipe:
                self._run_ixu_stages()
                self._advance_pipe()
                active = True
            regread_before = len(self._regread_q)
            self._enter_pipe()
            # Entries entering — or still inside — an unstalled pipe
            # advance next cycle, so the front end is not idle.
            if len(self._regread_q) != regread_before or self._ixu_pipe:
                active = True
        self._bypass_registry.prune(self.cycle)
        return 1 if active else 0

    def _event_horizon(self) -> int:
        horizon = super()._event_horizon()
        cycle = self.cycle
        # IXU front-end queue heads.  A stalled-but-frozen IXU pipe adds
        # no threshold of its own: it unblocks only via an issue-queue
        # drain, which requires a completion the base horizon covers.
        if self._exit_q:
            due = self._exit_q[0].dispatch_cycle
            if cycle <= due < horizon:
                horizon = due
        if self._regread_q:
            due = self._regread_q[0].dispatch_cycle
            if cycle <= due < horizon:
                horizon = due
        return horizon

    def _drain_exit_queue(self) -> bool:
        """Dispatch IXU-exiting instructions; False when the IQ blocks."""
        exit_q = self._exit_q
        if not exit_q:
            return True
        cycle = self.cycle
        iq = self.iq
        scoreboard = self.renamer.scoreboard
        issue_lat = self.config.dispatch_to_issue
        dispatched = 0
        width = self.config.rename_width
        while exit_q and dispatched < width:
            entry = exit_q[0]
            if entry.dispatch_cycle > cycle:
                break
            if entry.squashed:
                exit_q.popleft()
                continue
            if entry.executed_in_ixu:
                exit_q.popleft()
                dispatched += 1
                continue
            if iq.full:
                return False  # structural stall: hold the whole pipe
            exit_q.popleft()
            # Second scoreboard read (Section III-C): operands that became
            # ready in the OXU during IXU transit dispatch as ready.
            for cls, _preg in entry.renamed.srcs:
                scoreboard[cls].reads += 1
            entry.iq_cycle = cycle
            # issue_ready is final before dispatch: the wakeup engine
            # folds it into the entry's wake cycle on registration.
            entry.issue_ready = cycle + issue_lat
            iq.dispatch(entry)
            self._schedule_entry(entry)
            dispatched += 1
        if exit_q and exit_q[0].dispatch_cycle <= cycle:
            return False  # leftovers: pipe holds this cycle
        return True

    def _run_ixu_stages(self) -> None:
        """Attempt execution for every live instruction in the IXU."""
        cycle = self.cycle
        for entry in self._ixu_pipe:
            if (entry.squashed or entry.executed_in_ixu
                    or not entry.ixu_eligible):
                continue
            self._try_ixu_execute(entry, cycle)

    def _try_ixu_execute(self, entry: InFlight, cycle: int) -> bool:
        # Static gates (op class, branch/mem config) were resolved into
        # entry.ixu_eligible at register read.
        inst = entry.inst
        pos = entry.ixu_pos
        # Operand reachability: sources captured at register read are
        # settled; only the rest consult the bypass network each cycle.
        uncaptured = entry.ixu_uncaptured
        if uncaptured:
            available = self._bypass_registry.available
            for cls, preg in uncaptured:
                if not available(cls, preg, cycle, pos):
                    return False
        if inst.is_load and not self._load_dependence_clear(entry):
            return False
        if inst.is_store and self.lsq.has_younger_executed_load(entry.seq):
            # Omission 1's premise fails: a younger load already
            # executed (it beat this store through the IXU, or issued
            # from the OXU), so the store must run its violation
            # search — let it flow to the OXU where the search runs.
            return False
        # Structural: a free FU at this stage...
        if not self._stage_usage.try_use(cycle, pos):
            return False
        # ...and, for memory ops, a memory port the OXU left free (the
        # OXU issued earlier this cycle, giving it priority).
        if inst.is_mem:
            if not self.fu[FUType.MEM].try_issue(inst.op, cycle):
                return False
        entry.executed_in_ixu = True
        entry.ixu_exec_cycle = cycle
        entry.ixu_exec_stage = pos
        entry.ixu_category = "b" if uncaptured else "a"
        self._ixu_bypass_operand_hits += len(uncaptured)
        self._ixu_exec_count += 1
        if inst.is_mem:
            self._ixu_mem_exec_count += 1
        self._execute(entry, cycle, in_ixu=True)
        renamed = entry.renamed
        if renamed.dest is not None:
            self._bypass_registry.record(
                renamed.dest_cls, renamed.dest, entry,
                exec_cycle=cycle, exec_pos=pos,
                value_ready=entry.complete_cycle,
            )
        return True

    def _advance_pipe(self) -> None:
        """Move every in-pipe instruction one stage; exit the last."""
        depth = self.ixu_config.depth
        remaining: List[InFlight] = []
        for entry in self._ixu_pipe:
            if entry.squashed:
                continue
            entry.ixu_pos += 1
            if entry.ixu_pos >= depth:
                entry.dispatch_cycle = self.cycle + 1
                self._exit_q.append(entry)
            else:
                remaining.append(entry)
        self._ixu_pipe = remaining

    def _enter_pipe(self) -> None:
        """Register-read stage: capture available operands, enter stage 0."""
        regread_q = self._regread_q
        if not regread_q:
            return
        width = self.config.rename_width
        cycle = self.cycle
        scoreboard = self.renamer.scoreboard
        prf = self.renamer.prf
        ixu_pipe = self._ixu_pipe
        entered = 0
        ixu = self.ixu_config
        ports = self.config.prf_read_ports
        port_use = self._prf_port_use
        claimed = port_use.get(cycle, 0)
        while regread_q and entered < width:
            entry = regread_q[0]
            if entry.dispatch_cycle > cycle:  # regread not due yet
                break
            regread_q.popleft()
            if entry.squashed:
                continue
            captured = []
            uncaptured = []
            for cls, preg in entry.renamed.srcs:
                # Sequential scoreboard-then-PRF access (Section III-B):
                # the PRF is read only for available values, and only
                # through a shared port the OXU left free this cycle
                # (OXU priority, Section II-A).  A value missed here can
                # still arrive via IXU bypassing or the issue queue.
                board = scoreboard[cls]
                board.reads += 1
                if board._written[preg] <= cycle and claimed < ports:
                    file = prf[cls]
                    file.reads += 1
                    claimed += 1
                    captured.append(True)
                else:
                    captured.append(False)
                    uncaptured.append((cls, preg))
            entry.regread_captured = tuple(captured)
            entry.ixu_uncaptured = tuple(uncaptured)
            inst = entry.inst
            entry.ixu_eligible = (
                inst.ixu_eligible
                and (ixu.execute_branches or not inst.is_branch)
                and (ixu.execute_mem_ops or not inst.is_mem)
            )
            entry.ixu_pos = 0
            entry.ixu_exec_cycle = -1
            ixu_pipe.append(entry)
            entered += 1
        port_use[cycle] = claimed
        if len(port_use) > 64:
            self._prf_port_use = {
                c: n for c, n in port_use.items() if c >= cycle
            }

    # ------------------------------------------------------------------
    # Hooks into the base pipeline
    # ------------------------------------------------------------------

    def _bypass_network(self, in_ixu: bool) -> BypassNetwork:
        return self.ixu_bypass if in_ixu else self.oxu_bypass

    def _squash_hook(self, boundary_seq: int) -> None:
        for queue in (self._regread_q, self._ixu_pipe, self._exit_q):
            for entry in queue:
                if entry.seq > boundary_seq:
                    # Every front-end-pipe entry already holds a ROB slot,
                    # so the ROB sweep flush-recorded it; just (re)mark.
                    entry.squashed = True
        self._regread_q = deque(
            e for e in self._regread_q if not e.squashed
        )
        self._ixu_pipe = [e for e in self._ixu_pipe if not e.squashed]
        self._exit_q = deque(e for e in self._exit_q if not e.squashed)
        self._bypass_registry.drop_squashed()

    def _on_commit(self, entry: InFlight) -> None:
        if not entry.executed_in_ixu:
            return
        stats = self.stats
        stats.ixu_executed += 1
        if entry.ixu_category == "a":
            stats.ixu_category_a += 1
        else:
            stats.ixu_category_b += 1
        stage = entry.ixu_exec_stage
        stats.ixu_by_stage[stage] = stats.ixu_by_stage.get(stage, 0) + 1
        if entry.inst.is_mem:
            stats.ixu_mem_ops += 1
        if entry.inst.is_branch:
            stats.ixu_branches += 1

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

    def _prf_write_cycle(self, entry: InFlight) -> int:
        """IXU results reach the PRF only after exiting the IXU
        (paper Section II-B), not when they become bypassable."""
        if not entry.executed_in_ixu:
            return super()._prf_write_cycle(entry)
        exit_cycle = entry.ixu_exec_cycle + (
            self.ixu_config.depth - entry.ixu_exec_stage
        )
        return max(entry.complete_cycle, exit_cycle) + 1

    def snapshot_events(self):
        events = super().snapshot_events()
        events.ixu_ops = self._ixu_exec_count
        events.ixu_mem_ops = self._ixu_mem_exec_count
        events.ixu_bypass_broadcasts = self.ixu_bypass.broadcasts
        return events
