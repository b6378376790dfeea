"""Interval timeline telemetry: within-run time series of every
headline metric.

The end-of-run aggregates in :class:`~repro.core.stats.CoreStats`
answer "how did this run go"; this module answers "*when* did it go
that way".  A :class:`TimelineCollector` attached through the usual
:class:`~repro.obs.Observability` bundle snapshots an
:class:`IntervalSample` every N committed instructions (default
:data:`DEFAULT_INTERVAL`): IPC, per-cause stall cycles, mean IQ/ROB/
LQ/SQ occupancy (front-end queue occupancy on the in-order core), IXU
coverage, branch/cache miss rates, and a per-component energy delta
priced by the run's own :class:`~repro.energy.EnergyModel`.  That makes
phase behaviour — IXU coverage collapsing in a pointer-chasing phase,
the IQ filling during an L2-miss burst — visible instead of averaged
away, in the spirit of SimPoint-style interval analysis (Sherwood et
al.).

Like every collector in :mod:`repro.obs`, the timeline is **off by
default and free when off**: an unobserved core pays one ``is None``
test per cycle, and a timeline-observed run's simulated results stay
bit-identical to an unobserved one (the collector only *reads* core
state; ``tests/test_obs_timeline.py`` pins this).

Consumers:

* :func:`format_timeline_report` — terminal phase view (sparklines +
  the :func:`detect_phases` phase-change detector);
* :mod:`repro.obs.traceevent` — Chrome-trace-event/Perfetto export
  (CLI ``--timeline OUT.json``);
* :mod:`repro.obs.diffrun` — cross-run regression diffing of the
  aggregates the samples roll up into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.stats import EventCounts
from repro.obs.stall import STALL_CAUSES
from repro.obs.topdown import ClassMix, attribute_energy_by_class

#: Committed instructions per interval sample (the CLI ``--interval``).
DEFAULT_INTERVAL = 1_000


@dataclass
class IntervalSample:
    """One telemetry snapshot covering ``interval`` committed
    instructions (the last sample of a run may cover fewer).

    All counts are *deltas* over the interval, not cumulative totals,
    so samples can be charted or diffed directly.
    """

    index: int = 0
    start_cycle: int = 0
    end_cycle: int = 0          # exclusive
    cycles: int = 0
    committed: int = 0
    stalls: Dict[str, int] = field(default_factory=dict)
    occupancy: Dict[str, float] = field(default_factory=dict)
    ixu_executed: int = 0
    branches: int = 0
    mispredictions: int = 0
    l1i_misses: int = 0
    l1d_accesses: int = 0
    l1d_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    energy: Dict[str, float] = field(default_factory=dict)
    # Interval energy re-attributed to instruction classes (IXU/OXU x
    # ALU/branch/load/store/FP; see repro.obs.topdown) — sums to the
    # same total as ``energy``.
    energy_by_class: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def ixu_coverage(self) -> float:
        """Fraction of this interval's commits executed in the IXU."""
        if not self.committed:
            return 0.0
        return self.ixu_executed / self.committed

    @property
    def branch_miss_rate(self) -> float:
        if not self.branches:
            return 0.0
        return self.mispredictions / self.branches

    @property
    def l1d_miss_rate(self) -> float:
        if not self.l1d_accesses:
            return 0.0
        return self.l1d_misses / self.l1d_accesses

    @property
    def l2_miss_rate(self) -> float:
        if not self.l2_accesses:
            return 0.0
        return self.l2_misses / self.l2_accesses

    @property
    def energy_total(self) -> float:
        return sum(self.energy.values())

    @property
    def energy_per_instruction(self) -> float:
        if not self.committed:
            return 0.0
        return self.energy_total / self.committed

    def to_dict(self) -> Dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["stalls"] = dict(self.stalls)
        data["occupancy"] = dict(self.occupancy)
        data["energy"] = dict(self.energy)
        data["energy_by_class"] = dict(self.energy_by_class)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "IntervalSample":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


class TimelineCollector:
    """Accumulates :class:`IntervalSample` records for one core run.

    Attach through :class:`~repro.obs.Observability`::

        from repro.obs import Observability, TimelineCollector

        timeline = TimelineCollector(interval=1000)
        obs = Observability(metrics=False, stalls=False,
                            timeline=timeline)
        build_core("HALF+FX", obs=obs).run(trace)
        for sample in timeline.samples:
            print(sample.index, sample.ipc, sample.stalls)

    :meth:`charge` only accumulates cycles, stall causes, occupancy
    sums and the commit count; everything else (counter deltas, energy
    pricing) happens on the cold interval boundary, so the enabled
    overhead stays small and the disabled overhead stays zero.
    """

    def __init__(self, interval: int = DEFAULT_INTERVAL):
        if interval < 1:
            raise ValueError("timeline interval must be >= 1")
        self.interval = interval
        self.samples: List[IntervalSample] = []
        self.model = ""
        self.benchmark = ""
        self._attached = False
        # Per-interval accumulators (reset at each boundary).
        self._cycles = 0
        self._committed = 0
        self._stalls: Dict[str, int] = {}
        self._occupancy_names: Tuple[str, ...] = ()
        self._occupancy_sums: List[int] = []
        # Cumulative baselines of the previous boundary.
        self._cycle_base = 0
        self._prev = _CounterSnapshot()
        self._prev_events = EventCounts()
        self._energy_model = None

    # ------------------------------------------------------------------

    def attach(self, core, occupancy_names: Tuple[str, ...]) -> None:
        """Bind to ``core`` (called by ``Observability.attach``, which
        names the occupancies :meth:`charge` receives, in order)."""
        from repro.energy import EnergyModel

        if self._attached:
            raise RuntimeError(
                "a TimelineCollector observes exactly one core run; "
                "build a fresh one per simulation"
            )
        self._attached = True
        self.model = core.config.name
        self._energy_model = EnergyModel(core.config)
        self._occupancy_names = occupancy_names
        self._occupancy_sums = [0] * len(occupancy_names)

    def charge(self, core, committed: int, cycles: int,
               cause: Optional[str], occupancy: Sequence[int]) -> None:
        """Accumulate ``cycles`` cycles; sample on the boundary (hot).

        ``cycles > 1`` only for zero-commit cycles with frozen state
        (a fast-forwarded gap, the in-order drain tail), so the
        accumulators advance by ``cycles`` times the current values and
        no interval boundary can fall inside them: sampling is
        commit-gated.  ``cause`` is the stall cause of a zero-commit
        cycle.
        """
        self._cycles += cycles
        if committed:
            self._committed += committed
        else:
            stalls = self._stalls
            stalls[cause] = stalls.get(cause, 0) + cycles
        sums = self._occupancy_sums
        for index, value in enumerate(occupancy):
            sums[index] += value * cycles
        if self._committed >= self.interval:
            self._take_sample(core)

    def finalize(self, core) -> None:
        """Flush the trailing partial interval (if it saw any cycles)."""
        if self._cycles:
            self._take_sample(core)

    # ------------------------------------------------------------------

    def _take_sample(self, core) -> None:
        """Cold path, once per interval: delta every counter and price
        the interval's events into an energy breakdown."""
        cycles = self._cycles
        now = _CounterSnapshot.capture(core)
        events = core.snapshot_events()
        delta = events.delta(self._prev_events)
        breakdown = self._energy_model.price_events(
            delta, benchmark=self.benchmark,
            committed=self._committed)
        occupancy = {
            name: total / cycles
            for name, total in zip(self._occupancy_names,
                                   self._occupancy_sums)
        }
        prev = self._prev
        mix = ClassMix(
            committed=self._committed,
            loads=now.committed_loads - prev.committed_loads,
            stores=now.committed_stores - prev.committed_stores,
            branches=now.committed_branches - prev.committed_branches,
            fp=now.committed_fp - prev.committed_fp,
            ixu_executed=now.ixu_executed - prev.ixu_executed,
            ixu_mem_ops=now.ixu_mem_ops - prev.ixu_mem_ops,
            ixu_branches=now.ixu_branches - prev.ixu_branches,
        )
        self.samples.append(IntervalSample(
            index=len(self.samples),
            start_cycle=self._cycle_base,
            end_cycle=self._cycle_base + cycles,
            cycles=cycles,
            committed=self._committed,
            stalls=self._stalls,
            occupancy=occupancy,
            ixu_executed=now.ixu_executed - prev.ixu_executed,
            branches=now.branches - prev.branches,
            mispredictions=now.mispredictions - prev.mispredictions,
            l1i_misses=now.l1i_misses - prev.l1i_misses,
            l1d_accesses=now.l1d_accesses - prev.l1d_accesses,
            l1d_misses=now.l1d_misses - prev.l1d_misses,
            l2_accesses=now.l2_accesses - prev.l2_accesses,
            l2_misses=now.l2_misses - prev.l2_misses,
            energy={
                component.value: (breakdown.dynamic.get(component, 0.0)
                                  + breakdown.static.get(component, 0.0))
                for component in breakdown.dynamic
            },
            energy_by_class=attribute_energy_by_class(breakdown, mix),
        ))
        self._cycle_base += cycles
        self._prev = now
        self._prev_events = events
        self._cycles = 0
        self._committed = 0
        self._stalls = {}
        self._occupancy_sums = [0] * len(self._occupancy_names)

    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe dump of the whole timeline."""
        return {
            "model": self.model,
            "benchmark": self.benchmark,
            "interval": self.interval,
            "samples": [s.to_dict() for s in self.samples],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TimelineCollector":
        collector = cls(interval=data.get("interval", DEFAULT_INTERVAL))
        collector.model = data.get("model", "")
        collector.benchmark = data.get("benchmark", "")
        collector.samples = [
            IntervalSample.from_dict(s) for s in data.get("samples", [])
        ]
        return collector


class _CounterSnapshot:
    """Cumulative live-counter values at one interval boundary."""

    __slots__ = ("ixu_executed", "branches", "mispredictions",
                 "l1i_misses", "l1d_accesses", "l1d_misses",
                 "l2_accesses", "l2_misses",
                 # Commit-class counters for per-interval energy
                 # attribution (repro.obs.topdown.ClassMix).
                 "committed_loads", "committed_stores",
                 "committed_branches", "committed_fp",
                 "ixu_mem_ops", "ixu_branches")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    @classmethod
    def capture(cls, core) -> "_CounterSnapshot":
        snapshot = cls()
        stats = core.stats
        snapshot.ixu_executed = stats.ixu_executed
        snapshot.branches = stats.branches
        snapshot.mispredictions = stats.mispredictions
        snapshot.committed_loads = stats.committed_loads
        snapshot.committed_stores = stats.committed_stores
        snapshot.committed_branches = stats.committed_branches
        snapshot.committed_fp = stats.committed_fp
        snapshot.ixu_mem_ops = stats.ixu_mem_ops
        snapshot.ixu_branches = stats.ixu_branches
        hierarchy = core.hierarchy
        snapshot.l1i_misses = hierarchy.l1i.stats.misses
        snapshot.l1d_accesses = hierarchy.l1d.stats.accesses
        snapshot.l1d_misses = hierarchy.l1d.stats.misses
        snapshot.l2_accesses = hierarchy.l2.stats.accesses
        snapshot.l2_misses = hierarchy.l2.stats.misses
        return snapshot


# ----------------------------------------------------------------------
# Phase detection and the terminal report
# ----------------------------------------------------------------------


def _feature_vector(sample: IntervalSample,
                    ipc_scale: float) -> List[float]:
    """Normalised behaviour vector for phase comparison (every element
    in roughly [0, 1] so no metric dominates the distance)."""
    cycles = sample.cycles or 1
    vector = [
        sample.ipc / ipc_scale if ipc_scale else 0.0,
        sample.ixu_coverage,
        sample.branch_miss_rate,
        sample.l1d_miss_rate,
        sample.l2_miss_rate,
    ]
    vector.extend(
        sample.stalls.get(cause, 0) / cycles for cause in STALL_CAUSES
    )
    return vector


def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def detect_phases(samples: Sequence[IntervalSample],
                  window: int = 4,
                  threshold: float = 0.25) -> List[int]:
    """Sliding-window phase-change detector; returns phase-start
    indices (always beginning with 0 for a non-empty timeline).

    Each sample is reduced to a normalised behaviour vector (IPC, IXU
    coverage, miss rates, stall-cause shares); a new phase starts when
    a sample's vector is more than ``threshold`` (Euclidean distance)
    from the mean vector of the trailing ``window`` samples of the
    current phase.
    """
    if window < 1:
        raise ValueError("phase window must be >= 1")
    if not samples:
        return []
    ipc_scale = max(s.ipc for s in samples) or 1.0
    vectors = [_feature_vector(s, ipc_scale) for s in samples]
    phases = [0]
    history = [vectors[0]]
    for index in range(1, len(samples)):
        recent = history[-window:]
        mean = [sum(col) / len(recent) for col in zip(*recent)]
        if _distance(vectors[index], mean) > threshold:
            phases.append(index)
            history = [vectors[index]]
        else:
            history.append(vectors[index])
    return phases


def dominant_stall(sample_range: Sequence[IntervalSample]) -> str:
    """The stall cause with the most cycles over ``sample_range``
    (``"-"`` when nothing stalled)."""
    totals: Dict[str, int] = {}
    for sample in sample_range:
        for cause, cycles in sample.stalls.items():
            totals[cause] = totals.get(cause, 0) + cycles
    if not totals:
        return "-"
    return max(totals, key=lambda cause: (totals[cause], cause))


def format_timeline_report(collectors: Sequence[TimelineCollector],
                           window: int = 4,
                           threshold: float = 0.25) -> str:
    """Terminal phase view: one block per observed core with IPC and
    energy-per-instruction sparklines plus the detected phase table."""
    from repro.experiments.textchart import sparkline

    lines: List[str] = []
    for collector in collectors:
        samples = collector.samples
        label = f"{collector.model}/{collector.benchmark or '?'}"
        lines.append(
            f"-- {label}: {len(samples)} interval(s) x "
            f"{collector.interval} insts"
        )
        if not samples:
            lines.append("   (no samples)")
            continue
        ipcs = [s.ipc for s in samples]
        epis = [s.energy_per_instruction for s in samples]
        lines.append(f"   IPC    {sparkline(ipcs)}  "
                     f"[{min(ipcs):.2f}..{max(ipcs):.2f}]")
        lines.append(f"   pJ/in  {sparkline(epis)}  "
                     f"[{min(epis):.1f}..{max(epis):.1f}]")
        starts = detect_phases(samples, window=window,
                               threshold=threshold)
        bounds = starts + [len(samples)]
        for number, (begin, end) in enumerate(
                zip(bounds, bounds[1:]), start=1):
            span = samples[begin:end]
            cycles = sum(s.cycles for s in span) or 1
            committed = sum(s.committed for s in span)
            lines.append(
                f"   phase {number}: intervals {begin}-{end - 1}, "
                f"IPC {committed / cycles:.3f}, "
                f"dominant stall {dominant_stall(span)}"
            )
    return "\n".join(lines)


__all__ = [
    "DEFAULT_INTERVAL",
    "IntervalSample",
    "TimelineCollector",
    "detect_phases",
    "dominant_stall",
    "format_timeline_report",
]
