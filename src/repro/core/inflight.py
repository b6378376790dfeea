"""Per-instruction pipeline shadow state.

The trace's :class:`~repro.isa.DynInst` records stay immutable; each core
wraps every fetched instruction in an :class:`InFlight` that carries the
mutable pipeline state (renamed operands, timing, IXU progress, squash
flag).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.isa.instruction import DynInst

#: complete_cycle sentinel: not yet scheduled.
UNSCHEDULED = -1


class InFlight:
    """Mutable pipeline state of one in-flight dynamic instruction."""

    __slots__ = (
        "inst",
        "seq",
        "renamed",
        "src_pairs",
        "prediction",
        "mispredicted",
        "btb_redirect",
        "fetch_cycle",
        "deliver_cycle",
        "rename_cycle",
        "dispatch_cycle",
        "iq_cycle",
        "issue_ready",
        "wait_count",
        "issued",
        "issue_cycle",
        "complete_cycle",
        "written_cycle",
        "done",
        "squashed",
        "mem_executed",
        "lsq_written",
        "mem_dep",
        "cluster",
        "executed_in_ixu",
        "ixu_eligible",
        "ixu_exec_cycle",
        "ixu_exec_stage",
        "ixu_category",
        "ixu_uncaptured",
    )

    def __init__(self, inst: DynInst, fetch_cycle: int):
        self.inst = inst
        #: Program-order sequence number (trace position).
        self.seq = inst.seq
        self.renamed = None
        # Prebound ``(prf_ready_cycles_list, cls, preg)`` triples, one
        # per renamed source: the issue loop's operand check becomes two
        # flat list indexings with no dict lookup or attribute chase.
        # Bound when the entry is dispatched into the issue queue (the
        # PRF ready lists are mutated in place and never rebound, so the
        # references stay valid for the entry's whole lifetime).
        self.src_pairs: Sequence[Tuple] = ()
        self.prediction = None
        self.mispredicted = False
        self.btb_redirect = False
        self.fetch_cycle = fetch_cycle
        # Cycle the front end hands the entry on (to rename, or to
        # issue on the in-order core).
        self.deliver_cycle = fetch_cycle
        self.rename_cycle = UNSCHEDULED
        self.dispatch_cycle = UNSCHEDULED
        self.iq_cycle = UNSCHEDULED
        self.issue_ready = UNSCHEDULED
        # Unscheduled-producer count for the event-driven wakeup engine
        # (see OutOfOrderCore._schedule_entry).
        self.wait_count = 0
        self.issued = False
        self.issue_cycle = UNSCHEDULED
        self.complete_cycle = UNSCHEDULED
        # Cycle the result is readable from the PRF, set at execution.
        self.written_cycle = UNSCHEDULED
        self.done = False
        self.squashed = False
        self.mem_executed = False
        self.lsq_written = False
        self.mem_dep = None
        self.cluster = -1
        self.executed_in_ixu = False
        # Resolved at IXU entry: op class, branch/mem config gates.
        self.ixu_eligible = False
        self.ixu_exec_cycle = UNSCHEDULED
        self.ixu_exec_stage = -1
        self.ixu_category = ""
        # Sources *not* captured at register read: the per-cycle IXU
        # execute attempt only re-checks these against the bypass net.
        self.ixu_uncaptured: Sequence[Tuple] = ()

    def __repr__(self) -> str:
        flags = []
        if self.executed_in_ixu:
            flags.append("IXU")
        if self.done:
            flags.append("done")
        if self.squashed:
            flags.append("squashed")
        return f"<InFlight {self.inst!r} {' '.join(flags)}>"
