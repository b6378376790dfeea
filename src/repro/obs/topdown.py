"""Top-down (TMA-style) issue-slot accounting and per-class energy
attribution.

The flat stall taxonomy in :mod:`repro.obs.stall` answers "why did this
zero-commit cycle happen"; this module answers the hierarchical
question the paper's argument actually turns on: of every *issue slot*
the machine offered (``width x cycles``), how many retired work — and
in which execution unit, IXU or OXU — and where exactly did the rest
go?  The tree follows Yasin's top-down method (TMA), adapted to the
four core families:

* ``retiring.ixu`` / ``retiring.oxu`` — slots that committed an
  instruction, split by whether it executed in the in-order IXU or the
  out-of-order OXU (the paper's Figures 6/8 split; always ``oxu`` on
  cores without an IXU, and issue==commit on the in-order core).
* ``bad_speculation.*`` — ``squash``: slots paying for instructions
  that were later squashed by a memory-ordering violation (charged as
  a debt against otherwise-empty slots); ``branch_recovery``: slots
  lost waiting on a mispredicted branch to resolve and refill.
* ``frontend_bound.*`` — ``icache_miss`` (L1I refill in flight),
  ``redirect`` (BTB-cold decode redirect bubbles), ``queue_empty``
  (the front end simply had nothing to deliver).
* ``backend_bound.core.*`` — window stalls: ``iq_full`` / ``rob_full``
  / ``lsq_full`` / ``prf_full`` rename backpressure, ``iq_not_ready``
  (operands pending), ``fu_port`` (operands ready, issue ports or FUs
  refused), ``other`` (writeback/commit timing and the in-order drain
  tail).
* ``backend_bound.memory.*`` — the ROB-head load's miss level:
  ``l1d_bound`` / ``l2_bound`` / ``dram_bound``, classified by the
  load's *frozen* total latency (complete - issue cycle), never by the
  remaining wait, so the attribution is identical whether the cycles
  were ticked serially or bulk-replayed by the fast-forward kernel.

**Exactness invariant** (mirroring the stall collector's stall-sum
guarantee, pinned by ``tests/test_obs_topdown.py``): the leaf counts
sum to exactly ``width x cycles`` for the full run, where ``width`` is
the commit bandwidth (issue width on the in-order core).

The second half of the module joins the tree to the energy model:
:func:`attribute_energy_by_class` distributes a run's (or one timeline
interval's) :class:`~repro.energy.model.EnergyBreakdown` over
instruction classes (ALU / branch / load / store / FP, split IXU vs
OXU) using component-specific weight profiles — IXU energy lands on
``ixu.*`` rows, IQ and OXU-FU energy on ``oxu.*`` rows (IXU-executed
instructions never enter the issue queue), LSQ/L1D energy on the
memory rows — and the class sums equal the breakdown total (to float
round-off; also pinned by the tests).

Like every collector here, it is **off by default and free when off**:
attach one through :class:`~repro.obs.Observability` and the cores pay
nothing new when it is absent::

    from repro.obs import Observability, TopDownCollector

    topdown = TopDownCollector()
    obs = Observability(metrics=False, stalls=False, topdown=topdown)
    build_core("HALF+FX", obs=obs).run(trace)
    print(topdown.to_dict()["slots"])     # leaf -> slot count
    print(topdown.energy_by_class)        # class -> pJ
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.energy.area import Component

#: Every leaf of the slot tree, in display order.  Dotted paths encode
#: the hierarchy; :func:`rollup_slots` sums every prefix.
SLOT_LEAVES = (
    "retiring.ixu",
    "retiring.oxu",
    "bad_speculation.squash",
    "bad_speculation.branch_recovery",
    "frontend_bound.icache_miss",
    "frontend_bound.redirect",
    "frontend_bound.queue_empty",
    "backend_bound.core.iq_not_ready",
    "backend_bound.core.fu_port",
    "backend_bound.core.iq_full",
    "backend_bound.core.rob_full",
    "backend_bound.core.lsq_full",
    "backend_bound.core.prf_full",
    "backend_bound.core.other",
    "backend_bound.memory.l1d_bound",
    "backend_bound.memory.l2_bound",
    "backend_bound.memory.dram_bound",
)

#: Top-level categories (every leaf's first path segment).
SLOT_LEVELS = ("retiring", "bad_speculation", "frontend_bound",
               "backend_bound")

#: Instruction classes energy is attributed to.  ``unattributed``
#: absorbs component energy whose weight profile is all-zero (e.g.
#: LSQ leakage in a run that commits no memory operation), keeping the
#: class sum equal to the breakdown total in every degenerate case.
ENERGY_CLASSES = (
    "ixu.alu", "ixu.branch", "ixu.load", "ixu.store",
    "oxu.alu", "oxu.branch", "oxu.load", "oxu.store", "oxu.fp",
    "unattributed",
)


def rollup_slots(slots: Dict[str, int]) -> Dict[str, int]:
    """Sum every dotted prefix of the leaf counts (``backend_bound``,
    ``backend_bound.core``, ...) for hierarchical display."""
    tree: Dict[str, int] = {}
    for leaf, count in slots.items():
        parts = leaf.split(".")
        for depth in range(1, len(parts) + 1):
            prefix = ".".join(parts[:depth])
            tree[prefix] = tree.get(prefix, 0) + count
    return tree


class TopDownCollector:
    """Attributes every issue slot of one core run to the slot tree.

    :meth:`charge` takes every observed cycle from
    :class:`~repro.obs.Observability` — one call per ticked cycle, one
    per fast-forwarded gap — and charges ``width`` slots per cycle:
    first to retiring (split IXU/OXU via the commit-side
    ``stats.ixu_executed`` delta), then to the outstanding squash debt
    (``stats.squashed`` delta), and the remaining empty slots to the
    leaf of the core's ``_classify()``.  ``Observability.finalize``
    charges the in-order drain tail (reported cycles past the last
    tick) to ``backend_bound.core.other`` the same way, so the tree
    always sums to ``width x stats.cycles``.

    ``finalize`` prices the full run through
    :class:`~repro.energy.EnergyModel` and attributes it by class.
    Squash debt that never found an empty slot is reported, not
    silently re-charged (``unpaid_squash_debt``).
    """

    def __init__(self) -> None:
        self.slots: Dict[str, int] = dict.fromkeys(SLOT_LEAVES, 0)
        self.width = 0
        self.cycles = 0
        self.model = ""
        self.benchmark = ""
        self.ff_skipped = 0
        self.energy_by_class: Dict[str, float] = {}
        self.energy_total = 0.0
        self._attached = False
        self._last_ixu = 0
        self._last_squashed = 0
        self._squash_debt = 0

    # ------------------------------------------------------------------

    def attach(self, core) -> None:
        """Bind to ``core`` (called by ``Observability.attach``)."""
        if self._attached:
            raise RuntimeError(
                "a TopDownCollector observes exactly one core run; "
                "build a fresh one per simulation"
            )
        self._attached = True
        self.model = core.config.name
        self.width = core._topdown_width()

    def charge(self, core, committed: int, cycles: int,
               leaf: Optional[str]) -> None:
        """Charge ``width x cycles`` slots: retiring first, then the
        outstanding squash debt, then the empty rest to ``leaf``.

        ``cycles > 1`` only for zero-commit cycles with frozen state
        (a fast-forwarded gap, the in-order drain tail): no retiring
        slots, no new squash debt and one constant leaf, so the bulk
        charge equals the per-cycle sum.  ``leaf`` is None on a commit
        cycle, which the other views never classify; the collector
        then classifies only if slots remain after retiring and debt.
        """
        self.cycles += cycles
        slots = self.slots
        stats = core.stats
        squashed = stats.squashed
        if squashed != self._last_squashed:
            self._squash_debt += squashed - self._last_squashed
            self._last_squashed = squashed
        empty = self.width * cycles
        if committed:
            ixu_now = stats.ixu_executed
            ixu = ixu_now - self._last_ixu
            self._last_ixu = ixu_now
            slots["retiring.ixu"] += ixu
            slots["retiring.oxu"] += committed - ixu
            empty -= committed
            if not empty:
                return
        debt = self._squash_debt
        if debt:
            pay = debt if debt < empty else empty
            slots["bad_speculation.squash"] += pay
            self._squash_debt = debt - pay
            empty -= pay
            if not empty:
                return
        if leaf is None:
            leaf = core._classify()[1]
        slots[leaf] += empty

    def finalize(self, core) -> None:
        """Fast-forward counter and energy join."""
        from repro.energy import EnergyModel

        stats = core.stats
        self.ff_skipped = getattr(core, "_ff_skipped", 0)
        breakdown = EnergyModel(core.config).evaluate(stats)
        self.energy_total = breakdown.total
        self.energy_by_class = attribute_energy_by_class(
            breakdown, ClassMix.from_stats(stats))

    # ------------------------------------------------------------------

    @property
    def total_slots(self) -> int:
        return self.width * self.cycles

    def to_dict(self) -> Dict:
        """JSON-safe payload (what ``--metrics-json`` and the manifest
        aggregates embed); ``slots`` always carries every leaf."""
        return {
            "model": self.model,
            "benchmark": self.benchmark,
            "width": self.width,
            "cycles": self.cycles,
            "total_slots": self.total_slots,
            "slots": dict(self.slots),
            "levels": {
                level: count
                for level, count in sorted(
                    rollup_slots(self.slots).items())
                if level in SLOT_LEVELS
            },
            "ff_skipped_cycles": self.ff_skipped,
            "unpaid_squash_debt": self._squash_debt,
            "energy_by_class": dict(self.energy_by_class),
            "energy_total": self.energy_total,
        }


# ----------------------------------------------------------------------
# Per-instruction-class energy attribution
# ----------------------------------------------------------------------


@dataclass
class ClassMix:
    """Committed-instruction class counts for one run or interval."""

    committed: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    fp: int = 0
    ixu_executed: int = 0
    ixu_mem_ops: int = 0
    ixu_branches: int = 0

    @classmethod
    def from_stats(cls, stats) -> "ClassMix":
        return cls(
            committed=stats.committed,
            loads=stats.committed_loads,
            stores=stats.committed_stores,
            branches=stats.committed_branches,
            fp=stats.committed_fp,
            ixu_executed=stats.ixu_executed,
            ixu_mem_ops=stats.ixu_mem_ops,
            ixu_branches=stats.ixu_branches,
        )

    def rows(self) -> Dict[str, float]:
        """Per-class instruction weights (floats: the IXU's memory ops
        are split load/store proportionally to the overall mix)."""
        mem = self.loads + self.stores
        ixu_loads = (self.ixu_mem_ops * self.loads / mem) if mem else 0.0
        ixu_stores = self.ixu_mem_ops - ixu_loads
        ixu_alu = max(
            0.0, self.ixu_executed - self.ixu_mem_ops - self.ixu_branches)
        alu = max(
            0.0, self.committed - mem - self.branches - self.fp)
        return {
            "ixu.alu": ixu_alu,
            "ixu.branch": float(self.ixu_branches),
            "ixu.load": ixu_loads,
            "ixu.store": ixu_stores,
            "oxu.alu": max(0.0, alu - ixu_alu),
            "oxu.branch": max(0.0, self.branches - self.ixu_branches),
            "oxu.load": max(0.0, self.loads - ixu_loads),
            "oxu.store": max(0.0, self.stores - ixu_stores),
            "oxu.fp": float(self.fp),
        }


def _distribute(total: float, weights: Dict[str, float],
                out: Dict[str, float]) -> None:
    if not total:
        return
    wsum = sum(weights.values())
    if wsum <= 0:
        out["unattributed"] += total
        return
    for key, weight in weights.items():
        if weight:
            out[key] += total * (weight / wsum)


def attribute_energy_by_class(breakdown, mix: ClassMix
                              ) -> Dict[str, float]:
    """Distribute an :class:`~repro.energy.model.EnergyBreakdown` over
    :data:`ENERGY_CLASSES`.

    Component weight profiles encode where each structure's energy
    physically goes:

    * ``IXU`` — the ``ixu.*`` rows (it executes nothing else);
    * ``IQ`` and ``FUs`` — the ``oxu.*`` rows (IXU-executed
      instructions skip the issue queue and the OXU FUs; wrong-path
      and inter-cluster energy is OXU work too);
    * ``FPU`` — ``oxu.fp`` (the IXU has no FP units; its leakage stays
      identifiable under the FP class even in integer-only runs);
    * ``LSQ`` and ``L1D`` — the load/store rows, IXU/OXU split by the
      IXU's share of committed memory ops;
    * everything else (PRF/RAT/decoder/fetch/L1I/L2 and all leakage) —
      the full commit mix.

    Each component's dynamic+static total is split proportionally, so
    the class sums equal ``breakdown.total`` to float round-off (a
    final residual pass pins the last few ulps on the largest class).
    """
    rows = mix.rows()
    out = {key: 0.0 for key in ENERGY_CLASSES}
    ixu_rows = {k: v for k, v in rows.items() if k.startswith("ixu.")}
    oxu_rows = {k: v for k, v in rows.items() if k.startswith("oxu.")}
    mem_rows = {k: rows[k] for k in ("ixu.load", "ixu.store",
                                    "oxu.load", "oxu.store")}
    profiles = {
        Component.IXU: ixu_rows,
        Component.IQ: oxu_rows,
        Component.FUS: oxu_rows,
        Component.FPU: {"oxu.fp": 1.0},
        Component.LSQ: mem_rows,
        Component.L1D: mem_rows,
    }
    for component in Component:
        _distribute(breakdown.component_total(component),
                    profiles.get(component, rows), out)
    residual = breakdown.total - sum(out.values())
    if residual:
        largest = max(out, key=lambda key: out[key])
        out[largest] += residual
    return out


# ----------------------------------------------------------------------
# Aggregation and the terminal report
# ----------------------------------------------------------------------


def merge_topdown_payloads(payloads: Iterable[Dict]) -> Dict:
    """Merge per-benchmark :meth:`TopDownCollector.to_dict` payloads
    of one model into a single suite-level payload (slot counts,
    cycles and energy simply add; the width must agree)."""
    merged: Dict = {
        "model": "", "benchmark": "suite", "width": 0, "cycles": 0,
        "total_slots": 0, "slots": dict.fromkeys(SLOT_LEAVES, 0),
        "ff_skipped_cycles": 0, "unpaid_squash_debt": 0,
        "energy_by_class": {key: 0.0 for key in ENERGY_CLASSES},
        "energy_total": 0.0,
    }
    for payload in payloads:
        merged["model"] = payload.get("model", merged["model"])
        merged["width"] = max(merged["width"],
                              payload.get("width", 0))
        merged["cycles"] += payload.get("cycles", 0)
        merged["total_slots"] += payload.get("total_slots", 0)
        merged["ff_skipped_cycles"] += payload.get(
            "ff_skipped_cycles", 0)
        merged["unpaid_squash_debt"] += payload.get(
            "unpaid_squash_debt", 0)
        merged["energy_total"] += payload.get("energy_total", 0.0)
        for leaf, count in payload.get("slots", {}).items():
            merged["slots"][leaf] = (
                merged["slots"].get(leaf, 0) + count)
        for key, energy in payload.get("energy_by_class", {}).items():
            merged["energy_by_class"][key] = (
                merged["energy_by_class"].get(key, 0.0) + energy)
    merged["levels"] = {
        level: count
        for level, count in sorted(rollup_slots(merged["slots"]).items())
        if level in SLOT_LEVELS
    }
    return merged


def _display_rows() -> List[str]:
    """Hierarchy rows in display order: each unique prefix once, then
    its leaves, preserving :data:`SLOT_LEAVES` order."""
    rows: List[str] = []
    for leaf in SLOT_LEAVES:
        parts = leaf.split(".")
        for depth in range(1, len(parts) + 1):
            prefix = ".".join(parts[:depth])
            if prefix not in rows:
                rows.append(prefix)
    return rows


def format_topdown_report(payloads: Dict[str, Dict],
                          title: str = "Top-down slot accounting"
                          ) -> str:
    """Render merged per-model payloads as an aligned hierarchy table
    (share of ``width x cycles`` per node, one column per model)."""
    models = sorted(payloads)
    rows = _display_rows()
    trees = {model: rollup_slots(payloads[model].get("slots", {}))
             for model in models}
    totals = {model: payloads[model].get("total_slots", 0) or 1
              for model in models}
    label_width = max(len("  " * row.count(".") + row.rsplit(".", 1)[-1])
                      for row in rows) + 2
    lines = [title, "=" * len(title)]
    header = " " * label_width + "".join(
        f"{model:>12s}" for model in models)
    lines.append(header)
    for row in rows:
        depth = row.count(".")
        label = "  " * depth + row.rsplit(".", 1)[-1]
        cells = "".join(
            f"{trees[model].get(row, 0) / totals[model]:>11.1%} "
            for model in models)
        lines.append(f"{label:<{label_width}s}{cells}")
    lines.append("")
    lines.append("slots = commit width x cycles; IXU/OXU split per the "
                 "paper's Figure 6 coverage")
    return "\n".join(lines)


def format_energy_by_class(payloads: Dict[str, Dict],
                           title: str = "Energy by instruction class"
                           ) -> str:
    """Aligned per-class energy shares, one column per model."""
    models = sorted(payloads)
    lines = [title, "=" * len(title)]
    lines.append(" " * 16 + "".join(f"{model:>12s}" for model in models))
    totals = {model: payloads[model].get("energy_total", 0.0) or 1.0
              for model in models}
    for key in ENERGY_CLASSES:
        cells = "".join(
            f"{payloads[model].get('energy_by_class', {}).get(key, 0.0) / totals[model]:>11.1%} "
            for model in models)
        lines.append(f"{key:<16s}{cells}")
    return "\n".join(lines)


__all__ = [
    "SLOT_LEAVES",
    "SLOT_LEVELS",
    "ENERGY_CLASSES",
    "TopDownCollector",
    "ClassMix",
    "attribute_energy_by_class",
    "rollup_slots",
    "merge_topdown_payloads",
    "format_topdown_report",
    "format_energy_by_class",
]
