"""Functional warm-up shared by every core model.

The paper skips the first 4 G instructions of each benchmark before
measuring 100 M, so its predictors and caches are warm.  Our traces are
short; to avoid measuring cold-start transients, each core supports a
*functional* warm-up pass that trains the branch predictor and touches the
caches architecturally (no timing), after which its event counters are
reset so the measured interval is clean.
"""

from __future__ import annotations

from typing import Iterable

from repro.isa.instruction import DynInst
from repro.mem.cache import CacheStats


def functional_warmup(core, trace: Iterable[DynInst]) -> None:
    """Train ``core``'s predictor and caches on ``trace``; reset counters.

    Works on any :class:`~repro.core.base.CoreBase`: the predictor and
    the hierarchy it trains are the ones every core family builds there.
    """
    line_bytes = core.config.hierarchy.line_bytes
    last_line = -1
    for inst in trace:
        line = inst.pc // line_bytes
        if line != last_line:
            core.hierarchy.fetch(inst.pc)
            last_line = line
        if inst.is_branch:
            prediction = core.predictor.predict(inst)
            core.predictor.resolve(inst, prediction)
        elif inst.is_load:
            core.hierarchy.load(inst.mem_addr)
        elif inst.is_store:
            core.hierarchy.store(inst.mem_addr)
    reset_event_counters(core)


def reset_event_counters(core) -> None:
    """Zero the counters warm-up perturbed (cache stats, predictor).

    Every hierarchy *event* counter must be reset here — including
    ``prefetches``, which warm-up traffic trains heavily; leaving it
    would leak warm-up-issued prefetches into the measured interval and
    inflate the energy model's prefetch traffic.  The warmed *state*
    (cache contents, the tagged-prefetch line set, predictor tables)
    is deliberately kept: that is the point of the warm-up.
    """
    for cache in (core.hierarchy.l1i, core.hierarchy.l1d,
                  core.hierarchy.l2):
        cache.stats = CacheStats()
    core.hierarchy.mem_accesses = 0
    core.hierarchy.prefetches = 0
    core.predictor.lookups = 0
    core.predictor.mispredictions = 0
