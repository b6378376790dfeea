"""Pipeline observability: metrics, stall attribution, traces, manifests.

The simulator's default answer to "how did this run go" is the
end-of-run aggregate in :class:`~repro.core.stats.CoreStats`.  This
package adds the *why* behind those aggregates, at three granularities:

* :mod:`repro.obs.metrics` — a registry of counters and per-cycle
  occupancy histograms (IQ/ROB/LSQ fill, IXU execute vs. NOP
  passthrough, bypass hits);
* :mod:`repro.obs.stall` — per-cycle attribution of zero-commit cycles
  to a fixed cause taxonomy (where did the cycles go);
* :mod:`repro.obs.pipeview` — per-instruction pipeline-stage traces in
  the Kanata format the Konata visualiser loads;
* :mod:`repro.obs.timeline` — interval telemetry (IPC/stalls/occupancy/
  IXU coverage/energy every N committed instructions), with a terminal
  phase report, a Perfetto exporter (:mod:`repro.obs.traceevent`), and
  a cross-run regression differ (:mod:`repro.obs.diffrun`);
* :mod:`repro.obs.topdown` — TMA-style hierarchical issue-slot
  accounting (retiring IXU/OXU, bad speculation, frontend/backend
  bound) summing exactly to ``width x cycles``, plus per-instruction-
  class energy attribution summing to the run's EnergyBreakdown;
* :mod:`repro.obs.manifest` — a provenance JSON for whole harness
  invocations (config, code hash, host, pool accounting, cache counts);
* :mod:`repro.obs.report` — a self-contained static HTML report
  bundling all of the above per manifest (``repro-exp report``).

Everything is **off by default and free when off**: a core built without
an :class:`Observability` object pays one ``is None`` test per cycle and
nothing else, keeping the hot-loop throughput and the simulated results
bit-identical to an uninstrumented build.  An observed core makes one
:meth:`Observability.on_cycles` call per ticked cycle and one per
fast-forwarded gap; that call classifies the cycle once (the core's
``_classify()`` returns the stall cause and the top-down leaf together)
and hands the results to the stall, timeline and top-down views.
Enable it per run::

    from repro import build_core, generate_trace
    from repro.obs import Observability

    obs = Observability()
    core = build_core("HALF+FX", obs=obs)
    stats = core.run(generate_trace("hmmer", 10_000))
    print(stats.stalls)                    # cause -> cycles
    print(stats.metrics["histograms"])     # occupancy distributions
"""

from __future__ import annotations

from typing import Optional

from repro.obs.manifest import (
    JobRecord,
    RunManifest,
    aggregate_entry,
    host_info,
    manifest_path_for,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    occupancy_bounds,
)
from repro.obs.pipeview import KanataWriter
from repro.obs.stall import (
    STALL_CAUSES,
    StallCollector,
    format_stall_chart,
    format_stall_table,
)
from repro.obs.timeline import (
    DEFAULT_INTERVAL,
    IntervalSample,
    TimelineCollector,
    detect_phases,
    format_timeline_report,
)
from repro.obs.topdown import (
    ENERGY_CLASSES,
    SLOT_LEAVES,
    TopDownCollector,
    attribute_energy_by_class,
    format_energy_by_class,
    format_topdown_report,
    merge_topdown_payloads,
    rollup_slots,
)


def _backend_occupancy(core):
    """IQ, ROB, LQ and SQ fill of an out-of-order core."""
    lsq = core.lsq
    return (len(core.iq), len(core.rob),
            lsq.load_capacity - lsq.loads_free,
            lsq.store_capacity - lsq.stores_free)


def _frontend_occupancy(core):
    """Front-end queue fill of the in-order core."""
    return (len(core.frontend_q),)


class Observability:
    """Per-run bundle of enabled collectors, attached to one core.

    Args:
        metrics: Collect counters and per-cycle occupancy histograms.
        stalls: Attribute every zero-commit cycle to a stall cause.
        pipeview: A :class:`KanataWriter` to stream per-instruction
            pipeline stages into (None = no trace).
        timeline: A :class:`TimelineCollector` to snapshot interval
            telemetry into (None = no timeline).
        topdown: A :class:`TopDownCollector` to account every issue
            slot hierarchically into (None = no top-down tree).

    One instance observes one core for one run; the core calls
    :meth:`attach` when built, :meth:`on_cycles` for every observed
    cycle and :meth:`finalize` when its ``run`` completes, which copies
    the collected data onto ``core.stats``.  (Timeline samples and the
    top-down tree stay on their collectors, not on ``stats``, so an
    observed run's ``CoreStats`` round trip is unchanged.)
    """

    def __init__(self, metrics: bool = True, stalls: bool = True,
                 pipeview: Optional[KanataWriter] = None,
                 timeline: Optional[TimelineCollector] = None,
                 topdown: Optional[TopDownCollector] = None):
        self.metrics = MetricsRegistry() if metrics else None
        self.stalls = StallCollector() if stalls else None
        self.pipeview = pipeview
        self.timeline = timeline
        self.topdown = topdown
        self.cycles = 0
        self.commit_cycles = 0
        self._attached = False
        self._classifies = (stalls or timeline is not None
                            or topdown is not None)
        self._read_occupancy = None
        self._occupancy_hists = []

    # ------------------------------------------------------------------

    def attach(self, core) -> None:
        """Bind the views to ``core`` and decide which occupancies it
        has: IQ/ROB/LQ/SQ on the backend cores, the front-end queue on
        the in-order core."""
        if self._attached:
            raise RuntimeError(
                "an Observability instance observes exactly one core run; "
                "build a fresh one per simulation"
            )
        self._attached = True
        # Name -> capacity, in the reader's order; the names key the
        # occupancy.* histograms and the timeline's occupancy means.
        if getattr(core, "iq", None) is not None:
            lsq = core.lsq
            capacities = {"iq": core.iq.capacity, "rob": core.rob.capacity,
                          "lq": lsq.load_capacity,
                          "sq": lsq.store_capacity}
            reader = _backend_occupancy
        else:
            capacities = {
                "frontend_queue": core.config.frontend_queue_depth}
            reader = _frontend_occupancy
        if self.timeline is not None:
            self.timeline.attach(core, tuple(capacities))
        if self.topdown is not None:
            self.topdown.attach(core)
        metrics = self.metrics
        if metrics is not None:
            self._occupancy_hists = [
                metrics.histogram(f"occupancy.{name}",
                                  occupancy_bounds(capacity))
                for name, capacity in capacities.items()
            ]
        if metrics is not None or self.timeline is not None:
            self._read_occupancy = reader

    def on_cycles(self, core, committed: int, cycles: int) -> None:
        """Charge ``cycles`` observed cycles to every enabled view.

        A ticked cycle passes its commit count and ``cycles=1``;
        ``kernel.advance`` passes ``committed=0`` and the number of
        cycles it skipped, which are identical zero-commit cycles with
        frozen state.  Either way the core is classified at most once
        (``core._classify()`` returns the stall cause and the top-down
        leaf together) and each occupancy is read once; the views
        charge those values ``cycles`` times.  A commit cycle is
        classified only by the top-down view, and only when slots stay
        empty after retiring and squash debt.
        """
        self.cycles += cycles
        cause = leaf = None
        if committed:
            self.commit_cycles += 1
        elif self._classifies:
            cause, leaf = core._classify()
            if self.stalls is not None:
                self.stalls.charge(cause, cycles)
        occupancy = None
        if self._read_occupancy is not None:
            occupancy = self._read_occupancy(core)
            if self.metrics is not None:
                for hist, value in zip(self._occupancy_hists, occupancy):
                    hist.observe(value, cycles)
        if self.timeline is not None:
            self.timeline.charge(core, committed, cycles, cause, occupancy)
        if self.topdown is not None:
            self.topdown.charge(core, committed, cycles, leaf)

    def finalize(self, core) -> None:
        """Harvest per-core counters and publish onto ``core.stats``."""
        stats = core.stats
        drain = stats.cycles - self.cycles
        if drain > 0:
            # The in-order core's reported cycle count extends past its
            # last tick to drain in-flight completions: zero-commit
            # cycles that issued nothing.  Every view charges them (the
            # timeline into its open interval, or a final zero-commit
            # sample); the occupancy histograms stay per ticked cycle.
            self.cycles = stats.cycles
            if self.stalls is not None:
                self.stalls.charge("other", drain)
            if self.timeline is not None:
                self.timeline.charge(core, 0, drain, "other",
                                     self._read_occupancy(core))
            if self.topdown is not None:
                self.topdown.charge(core, 0, drain,
                                    "backend_bound.core.other")
        if self.timeline is not None:
            self.timeline.finalize(core)
        if self.topdown is not None:
            self.topdown.finalize(core)
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("cycles.total").add(stats.cycles)
            metrics.counter("cycles.commit").add(self.commit_cycles)
            # Fast-forward engagement: cycles the kernel jumped rather
            # than ticked (0 when REPRO_NO_FASTFORWARD disables it).
            metrics.counter("cycles.fastforwarded").add(
                getattr(core, "_ff_skipped", 0))
            if self.stalls is not None:
                metrics.counter("cycles.stall").add(self.stalls.total)
            ixu_exec = getattr(core, "_ixu_exec_count", None)
            if ixu_exec is not None:
                # NOP passthroughs are exactly the IQ dispatches: every
                # instruction the IXU could not execute flows through it
                # and enters the issue queue.
                metrics.counter("ixu.executed").add(ixu_exec)
                metrics.counter("ixu.nop_passthrough").add(
                    core.iq.dispatches)
                metrics.counter("ixu.bypass_operand_hits").add(
                    core._ixu_bypass_operand_hits)
                metrics.counter("bypass.ixu_broadcasts").add(
                    core.ixu_bypass.broadcasts)
            oxu = getattr(core, "oxu_bypass", None) or getattr(
                core, "bypass", None)
            if oxu is not None:
                metrics.counter("bypass.oxu_broadcasts").add(
                    oxu.broadcasts)
            per_cluster = getattr(core, "issued_per_cluster", None)
            if per_cluster is not None:
                for index, issued in enumerate(per_cluster):
                    metrics.counter(f"cluster.{index}.issued").add(issued)
                metrics.counter("cluster.forwards").add(
                    core.intercluster_forwards)
            stats.metrics = metrics.to_dict()
        if self.stalls is not None:
            stats.stalls = self.stalls.to_dict()


__all__ = [
    "Observability",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "occupancy_bounds",
    "StallCollector",
    "STALL_CAUSES",
    "format_stall_chart",
    "format_stall_table",
    "DEFAULT_INTERVAL",
    "IntervalSample",
    "TimelineCollector",
    "detect_phases",
    "format_timeline_report",
    "TopDownCollector",
    "SLOT_LEAVES",
    "ENERGY_CLASSES",
    "attribute_energy_by_class",
    "rollup_slots",
    "merge_topdown_payloads",
    "format_topdown_report",
    "format_energy_by_class",
    "KanataWriter",
    "JobRecord",
    "RunManifest",
    "host_info",
    "aggregate_entry",
    "manifest_path_for",
]
