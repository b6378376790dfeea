"""What every core family shares: the front end and its bookkeeping.

Table I gives every model the same front end (g-share/BTB/RAS, a 48 KB
L1I).  :class:`CoreBase` builds it, with the cache hierarchy, the FU
pools and the run statistics, and runs it: fetch into ``frontend_q``,
branch resolution with the wrong-path charge, the event-horizon
thresholds every family starts from, and the predictor, FU and cache
event counters.  Each family (in order; out of order, and through it
FXA and CA) adds its back end, its ``run``/``_tick`` loop, the rest of
its horizon, its stall classification and its own counters.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Tuple

from repro.backend import FUPool
from repro.branch import BranchPredictor
from repro.core import kernel
from repro.core.config import CoreConfig
from repro.core.inflight import InFlight
from repro.core.kernel import NO_EVENT
from repro.core.stats import CoreStats, EventCounts
from repro.isa.instruction import DynInst
from repro.isa.opclass import FUType, OpClass
from repro.mem.hierarchy import CacheHierarchy

#: FP arithmetic classes the commit count covers (not FP loads/stores).
_FP_ARITH = frozenset({OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV})


class SimulationError(RuntimeError):
    """The pipeline wedged (a model bug, surfaced loudly)."""


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


class CoreBase:
    """Front end, FU pools and shared counters of every core family.

    Args:
        config: Table I parameters for this model; its ``core_type``
            must be the subclass's :attr:`CORE_TYPE`.
        obs: Optional :class:`~repro.obs.Observability` bundle; when
            None (the default) the pipeline pays one ``is None`` test
            per hook site and collects nothing.
        validator: Optional :class:`~repro.validate.Validator`; same
            contract as ``obs``.
    """

    #: The ``CoreConfig.core_type`` this family simulates.
    CORE_TYPE = ""
    #: Share of the issue width charged as wrong-path FU work for each
    #: cycle of a misprediction's resolution window.
    WRONGPATH_SHARE = 0.5

    def __init__(self, config: CoreConfig, obs=None, validator=None):
        if config.core_type != self.CORE_TYPE:
            raise ValueError(f"{type(self).__name__} requires an "
                             f"{self.CORE_TYPE!r} config")
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
        self.stats = CoreStats(model=config.name)
        # Fast-forward kernel state (see repro.core.kernel).
        self._ff = kernel.fastforward_enabled()
        self._ff_skipped = 0  # cycles jumped, not ticked
        self._max_cycles: Optional[int] = None
        # Trace cursor and fetch state.
        self.cycle = 0
        self.trace: List[DynInst] = []
        self.fetch_idx = 0
        self.fetch_resume_cycle = 0
        self.waiting_branch: Optional[InFlight] = None
        self._last_fetched_line = -1
        self._fetch_stall_kind = ""  # read by frontend_stall
        self._stop_at_taken = config.fetch_breaks_on_taken
        self.frontend_q: Deque[InFlight] = deque()
        # Completion calendar: ``_completions[c]`` lists the entries
        # that complete at cycle ``c`` in the order they were
        # scheduled, and the heap ``_completion_cycles`` holds each such
        # ``c`` once, so its head is the next completion cycle.
        self._completions: Dict[int, List[InFlight]] = {}
        self._completion_cycles: List[int] = []
        # Observability (free when obs is None, see repro.obs).
        self._obs = obs
        self._pipeview = obs.pipeview if obs is not None else None
        self._validator = validator

    def _finish_run(self, cycles: int) -> CoreStats:
        """Close a run that took ``cycles``: collect the event counters,
        then let the observer and the validator finalize."""
        self.stats.cycles = cycles
        self._collect_events()
        if self._obs is not None:
            self._obs.finalize(self)
        if self._validator is not None:
            self._validator.finalize(self)
        return self.stats

    def _attach_observers(self) -> None:
        """Bind the observer and the validator; each family calls this
        once its back end exists (``Observability.attach`` reads the IQ
        and LSQ)."""
        if self._obs is not None:
            self._obs.attach(self)
        if self._validator is not None:
            self._validator.attach(self)

    # ------------------------------------------------------------------
    # Event horizon (fast-forward kernel)
    # ------------------------------------------------------------------

    def _base_horizon(self) -> int:
        """The thresholds every family's ``_event_horizon`` starts from:
        the completion calendar's next cycle, the fetch-resume cycle
        and the earliest outstanding refill."""
        cycle = self.cycle
        horizon = NO_EVENT
        completion_cycles = self._completion_cycles
        if completion_cycles:
            horizon = completion_cycles[0]
        resume = self.fetch_resume_cycle
        if cycle <= resume < horizon:
            horizon = resume
        fill = self.hierarchy.fill_horizon(cycle)
        if fill is not None and fill < horizon:
            horizon = fill
        return horizon

    # ------------------------------------------------------------------
    # Completion calendar
    # ------------------------------------------------------------------

    def _schedule_completion(self, entry: InFlight, cycle: int) -> None:
        """File ``entry`` to complete at ``cycle``, after every entry
        already filed for that cycle."""
        bucket = self._completions.get(cycle)
        if bucket is None:
            self._completions[cycle] = [entry]
            heappush(self._completion_cycles, cycle)
        else:
            bucket.append(entry)

    def _due_completions(self) -> List[InFlight]:
        """Take every entry filed for a cycle up to the current one,
        earliest cycle first and in filing order within a cycle."""
        completions = self._completions
        completion_cycles = self._completion_cycles
        cycle = self.cycle
        if not completion_cycles or completion_cycles[0] > cycle:
            return []
        due = completions.pop(heappop(completion_cycles))
        while completion_cycles and completion_cycles[0] <= cycle:
            due += completions.pop(heappop(completion_cycles))
        return due

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------

    def _fetch(self) -> bool:
        """Fetch up to ``fetch_width`` instructions into ``frontend_q``,
        each delivered ``fetch_to_rename`` cycles later (to rename out
        of order, to issue in order).  A misprediction stops fetch until
        the branch resolves (no wrong-path fetch); a taken branch whose
        target misses in the BTB costs a decode redirect; an L1I miss
        stalls fetch until the line arrives."""
        cycle = self.cycle
        if cycle < self.fetch_resume_cycle or self.waiting_branch is not None:
            return False
        config = self.config
        trace = self.trace
        frontend_q = self.frontend_q
        fetch_idx = self.fetch_idx
        # Each fetched instruction takes one trace record and one queue
        # slot, so the bound is known before the loop.
        end = fetch_idx + min(config.fetch_width, len(trace) - fetch_idx,
                              config.frontend_queue_depth - len(frontend_q))
        if fetch_idx >= end:
            return False
        line_bytes = config.hierarchy.line_bytes
        deliver_cycle = cycle + config.fetch_to_rename
        stop_at_taken = self._stop_at_taken
        stats = self.stats
        hierarchy = self.hierarchy
        predict = self.predictor.predict
        append = frontend_q.append
        last_line = self._last_fetched_line
        start = fetch_idx
        while fetch_idx < end:
            inst = trace[fetch_idx]
            line = inst.pc // line_bytes
            if line != last_line:
                result = hierarchy.fetch(inst.pc)
                self._last_fetched_line = last_line = line
                if not result.l1_hit:
                    # Refill in flight: resume once the line arrives.
                    self.fetch_idx = fetch_idx
                    stats.fetched += fetch_idx - start
                    self.fetch_resume_cycle = cycle + result.latency
                    hierarchy.note_refill(self.fetch_resume_cycle)
                    self._fetch_stall_kind = "icache"
                    return True
            entry = InFlight(inst, cycle, deliver_cycle)
            append(entry)
            fetch_idx += 1
            if inst.is_branch:
                stats.branches += 1
                prediction = entry.prediction = predict(inst)
                if not prediction.correct_for(inst):
                    if (prediction.taken and inst.taken
                            and prediction.target is None):
                        # Direction right, BTB cold: the decoder computes
                        # the target — a short front-end redirect.
                        stats.btb_redirects += 1
                        self.fetch_resume_cycle = (
                            cycle + config.decode_redirect_latency
                        )
                        self._fetch_stall_kind = "redirect"
                    else:
                        entry.mispredicted = True
                        self.waiting_branch = entry
                    break
                if inst.taken and stop_at_taken:
                    # Simple fetch units stop at a taken branch.
                    break
        self.fetch_idx = fetch_idx
        stats.fetched += fetch_idx - start
        return True

    # ------------------------------------------------------------------
    # Branch resolution
    # ------------------------------------------------------------------

    def _resolve_branch(self, entry: InFlight) -> None:
        """Train the predictor on a completed branch and let a fetch
        waiting on it resume next cycle.  A misprediction is charged
        :attr:`WRONGPATH_SHARE` of the issue width for each cycle of its
        resolution window: the model fetches no wrong path, but real
        cores execute down it until resolution, and the deeper and
        wider the window, the more flushed work (the reason LITTLE's FU
        energy is lowest in Figure 8b)."""
        self.predictor.resolve(entry.inst, entry.prediction)
        if entry.mispredicted:
            stats = self.stats
            stats.mispredictions += 1
            if entry.executed_in_ixu:
                stats.mispredictions_resolved_in_ixu += 1
            config = self.config
            window = max(
                0, self.cycle - entry.fetch_cycle - config.fetch_to_rename
            )
            stats.events.wrongpath_ops += (
                self.WRONGPATH_SHARE * config.issue_width * window
            )
        if self.waiting_branch is entry:
            self.waiting_branch = None
            self.fetch_resume_cycle = self.cycle + 1

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
        structure, so it is copied across.  Each family adds its back
        end's counts.
        """
        events = EventCounts()
        stats = self.stats
        events.cycles = self.cycle
        events.wrongpath_ops = stats.events.wrongpath_ops
        events.fetched = stats.fetched
        events.decoded = stats.fetched
        fu = self.fu
        events.fu_int_ops = fu[FUType.INT].executions
        events.fu_mem_ops = fu[FUType.MEM].executions
        events.fu_fp_ops = fu[FUType.FP].executions
        events.predictor_lookups = self.predictor.lookups
        events.btb_lookups = self.predictor.lookups
        hierarchy = self.hierarchy
        l1i, l1d, l2 = hierarchy.l1i, hierarchy.l1d, hierarchy.l2
        events.l1i_accesses = l1i.stats.accesses
        events.l1i_misses = l1i.stats.misses
        events.l1d_accesses = l1d.stats.accesses
        events.l1d_misses = l1d.stats.misses
        events.l2_accesses = l2.stats.accesses
        events.l2_misses = l2.stats.misses
        events.mem_accesses = hierarchy.mem_accesses
        events.prefetches = hierarchy.prefetches
        return events

    def _collect_events(self) -> None:
        self.stats.events = self.snapshot_events()
