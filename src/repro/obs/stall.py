"""Per-cycle stall-cause attribution ("where did the cycles go").

Every simulated cycle in which the core commits nothing is a *stall
cycle*, and the collector charges it to exactly one cause from a fixed
taxonomy — so the per-cause counts always sum to the total number of
stall cycles, and stall cycles plus commit cycles always sum to the
simulated cycle count.  The cause itself comes from the core's
``_classify()`` hook, which inspects the pipeline state the moment the
stall is observed (rename blocked on a full structure, ROB head
waiting on memory, front end recovering from a branch, ...) and
returns the cause together with its top-down slot-tree leaf.

The attribution is *hierarchical*: a cycle is charged to the most
specific blocking condition, with backend resource exhaustion taking
priority over front-end causes (a full IQ hides whatever the front end
was doing, exactly as in top-down analyses such as Yasin's TMA or
gem5's stall accounting).
"""

from __future__ import annotations

from typing import Dict, Mapping

#: The fixed cause taxonomy, in report order.
#:
#: * ``iq_full`` / ``rob_full`` / ``lsq_full`` / ``prf_full`` — rename
#:   blocked on a full backend structure (window pressure).
#: * ``dcache_miss`` — the ROB head is an issued load still waiting on
#:   the data memory hierarchy.
#: * ``operand_wait`` — the ROB head has not finished executing (waiting
#:   on operands, FU arbitration or a long-latency unit).
#: * ``branch_recovery`` — the front end is stopped on an unresolved
#:   misprediction or a redirect.
#: * ``icache_miss`` — fetch is waiting on an instruction-cache refill.
#: * ``frontend_fill`` — the backend is empty and the front-end pipe is
#:   still filling (start-up, post-squash refill, fetch-queue bubbles).
#: * ``other`` — anything else (commit-width limits, writeback races).
STALL_CAUSES = (
    "iq_full",
    "rob_full",
    "lsq_full",
    "prf_full",
    "dcache_miss",
    "operand_wait",
    "branch_recovery",
    "icache_miss",
    "frontend_fill",
    "other",
)


class StallCollector:
    """Accumulates one cause per zero-commit cycle."""

    __slots__ = ("counts",)

    def __init__(self):
        self.counts: Dict[str, int] = dict.fromkeys(STALL_CAUSES, 0)

    def charge(self, cause: str, cycles: int = 1) -> None:
        """Charge ``cycles`` stall cycles to ``cause``."""
        counts = self.counts
        if cause not in counts:
            cause = "other"
        counts[cause] += cycles

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def to_dict(self) -> Dict[str, int]:
        """Cause -> cycles, every taxonomy cause present (zeros kept so
        tables across benchmarks align)."""
        return dict(self.counts)


def format_stall_table(
    reports: Mapping[str, Mapping[str, int]],
    total_cycles: Mapping[str, int],
    title: str = "Stall-cause breakdown",
) -> str:
    """Render ``{run label: {cause: cycles}}`` as an aligned table.

    ``total_cycles`` maps the same labels to the run's simulated cycle
    count, so each row also shows the busy (non-stall) share.
    """
    labels = list(reports)
    causes = [
        c for c in STALL_CAUSES
        if any(reports[label].get(c, 0) for label in labels)
    ]
    label_width = max([len(label) for label in labels] + [len("run")])
    widths = [max(len(c), 7) + 2 for c in causes]
    header = (f"{'run':<{label_width}}  {'cycles':>8s} {'stall%':>7s}"
              + "".join(f"{c:>{w}s}" for c, w in zip(causes, widths)))
    lines = [title, header]
    for label in labels:
        counts = reports[label]
        cycles = total_cycles.get(label, 0)
        stalled = sum(counts.values())
        share = stalled / cycles if cycles else 0.0
        cells = "".join(
            f"{counts.get(c, 0):>{w}d}" for c, w in zip(causes, widths)
        )
        lines.append(
            f"{label:<{label_width}}  {cycles:>8d} {share:>6.1%}{cells}"
        )
    return "\n".join(lines)


def format_stall_chart(
    reports: Mapping[str, Mapping[str, int]],
    title: str = "Stall cycles by cause",
    width: int = 50,
) -> str:
    """Stacked text chart: one bar per run, partitioned by cause."""
    from repro.experiments.textchart import stacked_chart

    ordered = {
        label: {
            cause: counts.get(cause, 0)
            for cause in STALL_CAUSES if counts.get(cause, 0)
        }
        for label, counts in reports.items()
    }
    return stacked_chart(ordered, title=title, width=width)
