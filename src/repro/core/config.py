"""Core configuration dataclasses (Table I parameters).

Pipeline-depth parameters are expressed as stage-to-stage latencies; they
are chosen so that the effective branch-misprediction penalties match
Table I (11 cycles for the out-of-order models, 8 for LITTLE) and so that
an OXU-resolved misprediction in FXA pays the extra IXU depth while an
IXU-resolved one pays roughly half the penalty (paper Section IV-B2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.mem.hierarchy import HierarchyConfig


@dataclass(frozen=True)
class IXUConfig:
    """In-order execution unit parameters.

    Attributes:
        stage_fus: FUs per IXU stage; the paper's default is ``(3, 1, 1)``
            (three FUs in the first stage, one in each later stage —
            Section VI-B).
        bypass_stage_limit: Maximum stage distance operand bypassing
            reaches ("opt" = 2, Section III-A2); None means the full
            network.
        execute_mem_ops: Whether the IXU may execute loads/stores subject
            to memory-port arbitration (Section II-D3).
        execute_branches: Whether the IXU resolves branches early
            (Section II-D1).
    """

    stage_fus: Tuple[int, ...] = (3, 1, 1)
    bypass_stage_limit: Optional[int] = 2
    execute_mem_ops: bool = True
    execute_branches: bool = True

    def __post_init__(self) -> None:
        if not self.stage_fus:
            raise ValueError("IXU needs at least one stage")
        if any(n < 0 for n in self.stage_fus):
            raise ValueError("stage FU counts cannot be negative")
        if self.bypass_stage_limit is not None and self.bypass_stage_limit < 1:
            raise ValueError("bypass limit must be >= 1 stage")

    @property
    def depth(self) -> int:
        """Number of IXU stages."""
        return len(self.stage_fus)

    @property
    def total_fus(self) -> int:
        """Total FUs in the IXU (5 for the paper's [3,1,1])."""
        return sum(self.stage_fus)


@dataclass(frozen=True)
class ClusterConfig:
    """Clustered-architecture parameters (paper Section VII-A).

    The comparison point for FXA: an Alpha 21264-style machine whose
    execution core is split into clusters, each with its own integer FUs
    and issue bandwidth.  Bypassing *within* a cluster is free; a value
    crossing clusters costs ``inter_cluster_delay`` extra cycles, which
    is why CA needs careful instruction steering while FXA does not.

    Attributes:
        count: Number of clusters.
        issue_width_per_cluster: Issue slots per cluster per cycle.
        int_fus_per_cluster: Integer FUs private to each cluster
            (memory and FP units stay shared).
        inter_cluster_delay: Extra cycles for cross-cluster operands.
        steering: "dependence" steers an instruction to its producer's
            cluster (falling back to the least-loaded); "roundrobin"
            ignores dependences.
    """

    count: int = 2
    issue_width_per_cluster: int = 2
    int_fus_per_cluster: int = 1
    inter_cluster_delay: int = 1
    steering: str = "dependence"

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError("a clustered core needs >= 2 clusters")
        if self.steering not in ("dependence", "roundrobin"):
            raise ValueError(f"unknown steering {self.steering!r}")
        if self.inter_cluster_delay < 0:
            raise ValueError("inter_cluster_delay cannot be negative")


@dataclass(frozen=True)
class CoreConfig:
    """One core model's microarchitectural parameters."""

    name: str
    core_type: str                      # "ooo" | "inorder"
    fetch_width: int = 3
    rename_width: int = 3
    issue_width: int = 4
    commit_width: int = 4
    iq_entries: int = 64
    rob_entries: int = 128
    int_prf_entries: int = 128
    fp_prf_entries: int = 96
    lq_entries: int = 32
    sq_entries: int = 32
    fu_int: int = 2
    fu_mem: int = 2
    fu_fp: int = 2
    pht_entries: int = 4096
    btb_entries: int = 512
    ras_depth: int = 16
    #: Direction predictor: "gshare" (Table I), "bimodal", "tournament".
    predictor_kind: str = "gshare"
    #: PRF read ports shared between the OXU and (in FXA) the front-end
    #: register-read stage; the OXU has priority (paper Section II-A),
    #: so the IXU captures an operand only when a port is left free.
    #: Eight matches the paper's observation that the shared ports do
    #: not throttle the front end in practice (Section III-B).
    prf_read_ports: int = 8
    #: RENO-style move elimination at rename (paper Section VII-C, an
    #: extension the paper says composes with FXA).
    move_elimination: bool = False
    # Pipeline-depth latencies (cycles between stages).
    fetch_to_rename: int = 5
    rename_to_dispatch: int = 1
    dispatch_to_issue: int = 2
    decode_redirect_latency: int = 3
    frontend_queue_depth: int = 16
    #: Whether a correctly-predicted taken branch ends the fetch group.
    #: The wide OoO front ends (BTB-redirected, two blocks per cycle)
    #: fetch through.  Only the out-of-order fetch reads it: the little
    #: core's simpler fetch unit always breaks
    #: (``InOrderCore.ALWAYS_STOP_AT_TAKEN``), so an in-order config
    #: runs the same with either value.
    fetch_breaks_on_taken: bool = False
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    ixu: Optional[IXUConfig] = None
    clusters: Optional[ClusterConfig] = None

    def __post_init__(self) -> None:
        if self.core_type not in ("ooo", "inorder"):
            raise ValueError(f"unknown core type {self.core_type!r}")
        if self.core_type == "inorder" and self.ixu is not None:
            raise ValueError("the IXU attaches to out-of-order cores only")
        if self.clusters is not None and self.ixu is not None:
            raise ValueError("a core is clustered or FXA, not both")
        if self.clusters is not None and self.core_type != "ooo":
            raise ValueError("clusters attach to out-of-order cores only")
        for attr in ("fetch_width", "issue_width", "commit_width"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")

    @property
    def has_ixu(self) -> bool:
        """True for FXA models."""
        return self.ixu is not None

    @property
    def total_oxu_fus(self) -> int:
        """FUs on the OXU bypass network (int + mem + fp)."""
        return self.fu_int + self.fu_mem + self.fu_fp

    @property
    def mispredict_depth(self) -> int:
        """Approximate effective misprediction penalty in cycles.

        Front-end refill plus issue/execute/redirect overhead; lands on
        Table I's 11 cycles (out-of-order) and 8 cycles (in-order), and
        grows by the IXU depth + 1 for OXU-resolved branches in FXA
        (paper Section IV-B2).
        """
        if self.core_type == "inorder":
            return self.fetch_to_rename + 3
        depth = (self.fetch_to_rename + self.rename_to_dispatch
                 + self.dispatch_to_issue + 3)
        if self.ixu is not None:
            # +1 front-end register-read stage, + IXU stages.
            depth += 1 + self.ixu.depth
        return depth
