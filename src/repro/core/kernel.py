"""Shared event-driven fast-forward kernel for the four core models.

The per-cycle tick loops burn most of their time on cycles where nothing
can possibly change: long memory-miss shadows, branch-redirect bubbles,
front-end refills.  On such a cycle every pipeline stage re-evaluates a
frozen predicate — the next completion cycle is in the future, every
queue head is not yet due, every issue-queue entry waits on an operand
that arrives with a future completion.  This module lets a core jump
``self.cycle`` straight to the earliest cycle at which any state *can*
change, charging the skipped cycles to exactly the accounting the serial
loop would have produced.

Correctness rests on two facts the cores uphold:

1. **An idle tick touches no counters.**  A tick that commits, issues,
   dispatches, renames and fetches nothing — and processes no
   completions — leaves every energy/event counter, every queue, and
   every stall-attribution input untouched.  The cores detect this with
   cheap per-stage activity returns; only then do they fast-forward.
2. **The event horizon is conservative.**  ``_event_horizon`` returns a
   cycle no later than the first cycle at which any stage could act:
   the next completion cycle, the fetch-redirect resume cycle, the
   outstanding refill, each front-end queue head's due cycle, and the
   issue window's earliest wakeup.  Extra thresholds only shorten the
   jump, so being conservative is always safe.

The jump is bounded by the deadlock detector's trip point and by
``max_cycles`` so error cycles and truncated runs stay bit-identical to
the serial loop.  Skipped-cycle accounting charges the IQ occupancy
sample and the observability views in bulk, through the same
``Observability.on_cycles`` call a ticked cycle makes; an attached
validator is replayed cycle-by-cycle to preserve its periodic-audit
cadence (validated runs trade most of the speedup for full checking).

Escape hatch: ``REPRO_NO_FASTFORWARD=1`` in the environment disables
fast-forwarding at core construction, restoring the serial loop (the
equivalence suite and CI exercise both paths).
"""

from __future__ import annotations

import os

#: Abort the run when commit makes no progress for this many cycles.
DEADLOCK_LIMIT = 20_000

#: Horizon sentinel: no future event is scheduled.  Strictly greater
#: than :data:`repro.rename.prf.NEVER` so an unscheduled producer never
#: masquerades as an event.
NO_EVENT = 1 << 62


def fastforward_enabled() -> bool:
    """Read the escape hatch (sampled once, at core construction)."""
    return os.environ.get("REPRO_NO_FASTFORWARD", "") in ("", "0")


def advance(core, progress_cycle: int) -> None:
    """Jump ``core.cycle`` forward to the core's event horizon.

    Called at the end of an idle ``_tick`` (after the cycle increment).
    ``progress_cycle`` is the core's last forward-progress cycle; the
    jump never passes the cycle at which the run loop's deadlock check
    would trip, nor ``core._max_cycles``, so both fire at the exact
    cycle the serial loop would report.
    """
    target = core._event_horizon()
    limit = progress_cycle + DEADLOCK_LIMIT + 1
    if target > limit:
        target = limit
    max_cycles = core._max_cycles
    if max_cycles is not None and target > max_cycles:
        target = max_cycles
    cycle = core.cycle
    skipped = target - cycle
    if skipped <= 0:
        return
    core._ff_skipped += skipped
    # Bulk accounting for the skipped cycles, in the serial tick's
    # order: occupancy sample, observability, validator.  The skipped
    # cycles commit nothing and leave the state frozen, so one
    # ``on_cycles`` call classifies once and charges them all.
    iq = getattr(core, "iq", None)
    if iq is not None:
        iq.sample_occupancy_many(skipped)
    obs = core._obs
    if obs is not None:
        obs.on_cycles(core, 0, skipped)
    validator = core._validator
    if validator is not None:
        # Replayed per cycle: the validator's periodic audits key on
        # ``core.cycle % audit_interval`` and must keep their cadence.
        for replay_cycle in range(cycle, target):
            core.cycle = replay_cycle
            validator.on_cycle(core, 0)
    core.cycle = target
