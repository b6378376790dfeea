"""Simulation result records: timing statistics and energy event counts.

Both records round-trip through plain dicts (``to_dict``/``from_dict``)
so the disk cache and the CLI ``--json`` output share one codepath.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class EventCounts:
    """Raw access/event counts the energy model prices.

    Every count is an *occurrence* total over the simulated interval; the
    energy model multiplies each by a per-event energy that scales with
    the priced structure's geometry (capacity × ports).
    """

    cycles: int = 0
    fetched: int = 0
    decoded: int = 0
    # Issue queue.
    iq_dispatches: int = 0
    iq_issues: int = 0
    iq_wakeup_broadcasts: int = 0
    iq_cam_compares: int = 0
    # Load/store queue.
    lsq_writes: int = 0
    lsq_searches: int = 0
    lsq_omitted_writes: int = 0
    lsq_omitted_searches: int = 0
    # Register files and rename.
    prf_reads: int = 0
    prf_writes: int = 0
    scoreboard_reads: int = 0
    rat_reads: int = 0
    rat_writes: int = 0
    rob_allocations: int = 0
    # Execution.
    fu_int_ops: int = 0
    fu_mem_ops: int = 0
    fu_fp_ops: int = 0
    ixu_ops: int = 0
    ixu_mem_ops: int = 0
    oxu_bypass_broadcasts: int = 0
    intercluster_forwards: int = 0
    moves_eliminated: int = 0
    ixu_bypass_broadcasts: int = 0
    wrongpath_ops: float = 0.0
    # Front end.
    predictor_lookups: int = 0
    btb_lookups: int = 0
    # Memory hierarchy.
    l1i_accesses: int = 0
    l1i_misses: int = 0
    l1d_accesses: int = 0
    l1d_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    mem_accesses: int = 0
    prefetches: int = 0

    def to_dict(self) -> Dict:
        """Plain-dict form (JSON-serializable), fields in declaration
        order."""
        return {name: getattr(self, name) for name in _EVENT_FIELDS}

    @classmethod
    def from_dict(cls, data: Dict) -> "EventCounts":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def delta(self, since: "EventCounts") -> "EventCounts":
        """Field-wise ``self - since``: the events of the interval
        between two snapshots (used by the timeline collector)."""
        return EventCounts(**{
            f.name: getattr(self, f.name) - getattr(since, f.name)
            for f in fields(self)
        })


@dataclass
class CoreStats:
    """Timing results of one simulation run."""

    model: str = ""
    benchmark: str = ""
    cycles: int = 0
    committed: int = 0
    fetched: int = 0
    # Branches.
    branches: int = 0
    mispredictions: int = 0
    mispredictions_resolved_in_ixu: int = 0
    btb_redirects: int = 0
    # Memory ordering.
    violations: int = 0
    squashed: int = 0
    forwarded_loads: int = 0
    # IXU execution profile (paper Section IV-A / Figure 12).
    ixu_executed: int = 0
    ixu_category_a: int = 0      # ready when entering the IXU
    ixu_category_b: int = 0      # became ready through IXU bypassing
    ixu_by_stage: Dict[int, int] = field(default_factory=dict)
    ixu_mem_ops: int = 0
    ixu_branches: int = 0
    # Committed mix.
    committed_loads: int = 0
    committed_stores: int = 0
    committed_fp: int = 0
    committed_branches: int = 0
    # Backend occupancy.
    iq_mean_occupancy: float = 0.0
    # Observability extras (populated only when the run was observed by
    # a repro.obs.Observability bundle; empty dicts otherwise so the
    # record's shape — and its JSON round trip — never varies).
    stalls: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, Dict] = field(default_factory=dict)
    events: EventCounts = field(default_factory=EventCounts)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        if not self.cycles:
            return 0.0
        return self.committed / self.cycles

    @property
    def ixu_executed_rate(self) -> float:
        """Fraction of committed instructions executed in the IXU
        (the paper's Figure 12 metric)."""
        if not self.committed:
            return 0.0
        return self.ixu_executed / self.committed

    @property
    def misprediction_rate(self) -> float:
        if not self.branches:
            return 0.0
        return self.mispredictions / self.branches

    @property
    def stall_cycles(self) -> int:
        """Total attributed stall cycles (0 unless the run was observed).

        By construction every zero-commit cycle is charged to exactly
        one cause, so this always equals the number of cycles in which
        nothing committed.
        """
        return sum(self.stalls.values())

    def to_dict(self) -> Dict:
        """Plain-dict form (JSON-serializable).

        Fields in declaration order, every container copied, so the
        dict shares nothing with the record.  ``ixu_by_stage`` keys
        become strings so the dict survives a JSON round trip unchanged;
        :meth:`from_dict` converts them back.
        """
        data = {name: getattr(self, name) for name in _STATS_FIELDS}
        data["ixu_by_stage"] = {
            str(k): v for k, v in self.ixu_by_stage.items()
        }
        data["stalls"] = dict(self.stalls)
        data["metrics"] = copy.deepcopy(self.metrics)
        data["events"] = self.events.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "CoreStats":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["events"] = EventCounts.from_dict(data.get("events", {}))
        kwargs["ixu_by_stage"] = {
            int(k): v for k, v in data.get("ixu_by_stage", {}).items()
        }
        return cls(**kwargs)

    def summary(self) -> str:
        """One-line human summary."""
        parts = [
            f"{self.model or 'core'} on {self.benchmark or '?'}:",
            f"IPC {self.ipc:.3f}",
            f"({self.committed} insts / {self.cycles} cycles)",
        ]
        if self.ixu_executed:
            parts.append(f"IXU rate {self.ixu_executed_rate:.1%}")
        return " ".join(parts)


_EVENT_FIELDS = tuple(f.name for f in fields(EventCounts))
_STATS_FIELDS = tuple(f.name for f in fields(CoreStats))
