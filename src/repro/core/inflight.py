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
    """Mutable pipeline state of one in-flight dynamic instruction.

    The constructor sets the slots that any stage, observer or validator
    may read of any entry.  The rest belong to one stage or family and
    are set by the stage that first needs them, so reading one earlier
    raises ``AttributeError`` instead of returning a stale default:

    * ``prediction`` (branches only): fetch;
    * ``dispatch_cycle``: out-of-order rename, for the dispatch queue;
    * ``mem_dep`` (loads only): rename, from the store-set predictor;
    * ``cluster``: the clustered core's rename steering;
    * ``src_pairs``, ``wait_count``: dispatch into the issue queue
      (``OutOfOrderCore._schedule_entry``);
    * ``ixu_exec_cycle``, ``ixu_exec_stage``, ``ixu_category``: FXA's
      IXU, when the entry executes there (readers test
      ``executed_in_ixu`` first).
    """

    __slots__ = (
        "inst",
        "seq",
        "renamed",
        "src_pairs",
        "prediction",
        "mispredicted",
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

    # ``src_pairs`` (bound at dispatch) holds one ``(prf_ready_cycles_list,
    # waiter_slots, preg)`` triple per renamed source: the issue loop's
    # operand check becomes two flat list indexings with no dict lookup
    # or attribute chase.  The PRF ready lists and the waiter slot lists
    # are mutated in place and never rebound, so the references stay
    # valid for the entry's whole lifetime.  ``wait_count`` is its
    # unscheduled-producer count for the event-driven wakeup engine.

    def __init__(self, inst: DynInst, fetch_cycle: int,
                 deliver_cycle: int = UNSCHEDULED):
        self.inst = inst
        #: Program-order sequence number (trace position).
        self.seq = inst.seq
        self.renamed = None
        self.mispredicted = False
        self.fetch_cycle = fetch_cycle
        # Cycle the front end hands the entry on (to rename, or to
        # issue on the in-order core).
        self.deliver_cycle = deliver_cycle
        self.rename_cycle = UNSCHEDULED
        self.iq_cycle = UNSCHEDULED
        self.issue_ready = UNSCHEDULED
        self.issued = False
        self.issue_cycle = UNSCHEDULED
        self.complete_cycle = UNSCHEDULED
        # Cycle the result is readable from the PRF, set at execution.
        self.written_cycle = UNSCHEDULED
        self.done = False
        self.squashed = False
        self.mem_executed = False
        self.lsq_written = False
        self.executed_in_ixu = False
        # Resolved at IXU entry: op class, branch/mem config gates.
        self.ixu_eligible = False
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
