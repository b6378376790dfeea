"""Clustered out-of-order core — the paper's related-work comparator.

Section VII-A contrasts FXA with clustered architectures (CA) such as the
Alpha 21264: both add execution bandwidth, but CA's clusters have no order
relation, so it needs (1) cross-cluster operand bypassing and wakeup with
extra latency, and (2) instruction steering to keep dependent chains
together.  FXA avoids both because the IXU and OXU are in series.

This model implements CA faithfully enough to reproduce that argument:

* each cluster owns private integer FUs and issue slots (memory and FP
  units remain shared, as on the 21264);
* a value consumed in its producer's cluster is bypassed normally; a
  value crossing clusters arrives ``inter_cluster_delay`` cycles later
  and is counted as an inter-cluster forward (priced like a longer
  result wire by the energy model);
* dependence steering places an instruction in its first producer's
  cluster when possible, falling back to the least-loaded cluster;
  round-robin steering is the strawman the paper alludes to.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop
from typing import Dict, List, Tuple

from repro.backend import FUPool
from repro.core.config import CoreConfig
from repro.core.inflight import InFlight
from repro.core.ooo import OutOfOrderCore
from repro.isa.opclass import FUType
from repro.isa.registers import RegClass


class ClusteredCore(OutOfOrderCore):
    """Alpha 21264-style clustered out-of-order core."""

    def __init__(self, config: CoreConfig, obs=None, validator=None,
                 warm_state=None):
        if config.clusters is None:
            raise ValueError("ClusteredCore requires a cluster config")
        super().__init__(config, obs, validator, warm_state)
        clusters = config.clusters
        self.cluster_config = clusters
        # Private integer FU pools per cluster; MEM/FP stay shared.
        self.cluster_int_fus: List[FUPool] = [
            FUPool(FUType.INT, clusters.int_fus_per_cluster)
            for _ in range(clusters.count)
        ]
        # Producing cluster of each in-flight physical register.
        self._preg_cluster: Dict[Tuple[RegClass, int], int] = {}
        # Rolling occupancy estimate for least-loaded steering.
        self._steer_load: List[int] = [0] * clusters.count
        self._roundrobin_next = 0
        self.intercluster_forwards = 0
        self.issued_per_cluster: List[int] = [0] * clusters.count
        # Per-tick scratch: per-cluster issue counts, zeroed in place
        # each _issue call instead of reallocated every cycle.
        self._per_cluster: List[int] = [0] * clusters.count

    # ------------------------------------------------------------------
    # Steering (at rename/dispatch)
    # ------------------------------------------------------------------

    def _steer(self, entry: InFlight) -> int:
        clusters = self.cluster_config
        if clusters.steering == "roundrobin":
            cluster = self._roundrobin_next
            self._roundrobin_next = (cluster + 1) % clusters.count
            return cluster
        # Dependence steering: follow the first in-flight producer —
        # unless that cluster is badly overloaded (21264-style steering
        # balances too, or throughput-bound code piles onto one side).
        loads = self._steer_load
        least = loads.index(min(loads))
        for cls, preg in entry.renamed.srcs:
            producer_cluster = self._preg_cluster.get((cls, preg))
            if producer_cluster is None:
                continue
            if (self._steer_load[producer_cluster]
                    <= self._steer_load[least] + 6):
                return producer_cluster
            break
        return least

    def _after_rename(self, entry: InFlight) -> None:
        super()._after_rename(entry)
        entry.cluster = self._steer(entry)
        self._steer_load[entry.cluster] += 1
        renamed = entry.renamed
        if renamed.dest is not None:
            self._preg_cluster[(renamed.dest_cls, renamed.dest)] = (
                entry.cluster
            )

    # ------------------------------------------------------------------
    # Issue: per-cluster widths, private INT FUs, cross-cluster latency
    # ------------------------------------------------------------------

    def _entry_wake(self, entry: InFlight) -> int:
        """Cluster-aware wake cycle: a value crossing clusters arrives
        ``inter_cluster_delay`` cycles after the producer's value is
        ready.  Computed once per entry when its last producer's
        arrival becomes known — the producer-cluster map is stable for
        the life of the consumer (the producer's physical register is
        not reclaimed while an in-flight consumer names it)."""
        wake = entry.issue_ready
        delay = self.cluster_config.inter_cluster_delay
        prf = self.renamer.prf
        preg_cluster_get = self._preg_cluster.get
        cluster = entry.cluster
        for cls, preg in entry.renamed.srcs:
            arrival = prf[cls].ready_cycles[preg]
            producer_cluster = preg_cluster_get((cls, preg))
            if (producer_cluster is not None
                    and producer_cluster != cluster):
                arrival += delay
            if arrival > wake:
                wake = arrival
        return wake

    def _issue(self) -> int:
        cycle = self.cycle
        heap = self._wake_heap
        ready = self._ready_entries
        if heap and heap[0][0] <= cycle:
            while heap and heap[0][0] <= cycle:
                _, seq, entry = heappop(heap)
                if entry.squashed or entry.issued:
                    continue
                insort(ready, (seq, entry))
        if not ready:
            return 0
        per_cluster = self._per_cluster
        for index in range(len(per_cluster)):
            per_cluster[index] = 0
        width = self.cluster_config.issue_width_per_cluster
        total_width = self.config.issue_width
        iq = self.iq
        issued_total = 0
        for _, entry in ready:
            if entry.squashed or entry.issued:
                continue
            cluster = entry.cluster
            if per_cluster[cluster] >= width:
                continue
            inst = entry.inst
            if inst.is_load and not self._load_dependence_clear(entry):
                continue
            fu_type = inst.fu_type
            if fu_type is FUType.INT:
                if not self.cluster_int_fus[cluster].try_issue(
                        inst.op, cycle):
                    continue
            elif not self.fu[fu_type].try_issue(inst.op, cycle):
                continue
            # The entry leaves the queue's live count (a payload read);
            # the backing list drops it lazily (``remove_issued``).
            iq.issues += 1
            iq._live -= 1
            entry.issued = True
            per_cluster[cluster] += 1
            issued_total += 1
            self.issued_per_cluster[cluster] += 1
            self._count_cross_cluster(entry)
            self._steer_load[cluster] = max(
                0, self._steer_load[cluster] - 1)
            self._execute(entry, cycle, in_ixu=False)
            if entry.squashed:
                break
            if issued_total >= total_width:
                break
        if issued_total:
            iq.remove_issued()
            self._ready_entries = [
                item for item in self._ready_entries
                if not item[1].issued and not item[1].squashed
            ]
        return issued_total

    def _classify(self) -> Tuple[str, str]:
        """An ``operand_wait`` head that has not issued although its
        cluster-aware wake cycle has passed is not waiting on operands
        at all — it lost the per-cluster select (issue-port
        starvation).  (The base reports an unissued head as
        ``operand_wait`` only once it sits in the IQ, so its wake cycle
        is defined.)  Fast-forward stable: the wake heap's head bounds
        the kernel's jump horizon, so this predicate cannot flip inside
        a skipped gap."""
        cause, leaf = super()._classify()
        if cause == "operand_wait":
            head = self.rob.head()
            if not head.issued and self._entry_wake(head) <= self.cycle:
                return cause, "backend_bound.core.fu_port"
        return cause, leaf

    def _count_cross_cluster(self, entry: InFlight) -> None:
        for cls, preg in entry.renamed.srcs:
            producer_cluster = self._preg_cluster.get((cls, preg))
            if (producer_cluster is not None
                    and producer_cluster != entry.cluster):
                self.intercluster_forwards += 1

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------

    def _squash_hook(self, boundary_seq: int) -> None:
        # Squashed producers' pregs went back to the free lists and may
        # be re-allocated to any cluster; drop their stale mappings.
        for (cls, preg) in list(self._preg_cluster):
            if preg in self.renamer.free[cls]:
                del self._preg_cluster[(cls, preg)]

    def snapshot_events(self):
        # += is safe: the base snapshot is a fresh object every call.
        events = super().snapshot_events()
        events.fu_int_ops += sum(
            pool.executions for pool in self.cluster_int_fus
        )
        events.intercluster_forwards = self.intercluster_forwards
        return events
