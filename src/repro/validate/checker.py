"""Differential and invariant checking attached to a running core.

A :class:`Validator` plugs into any core model through the same
optional-bundle pattern as :class:`repro.obs.Observability`: the core
holds it in ``self._validator`` and pays one ``is None`` test per hook
site when validation is off.  When attached, it performs two families
of checks:

**Differential (golden-oracle) checks**, at every commit:

* commits happen in program order, each sequence number exactly once
  (``commit_order``);
* the committed instruction is the trace's instruction for that
  sequence number (``commit_mismatch``);
* a shadow :class:`~repro.validate.oracle.GoldenOracle` replays the
  committed stream, and the final architectural register/memory state
  must equal the reference execution (``arch_state``);
* every trace instruction has committed by the end of the run
  (``commit_missing``).

**Microarchitectural invariants**, per cycle / per event:

* ``occupancy_*`` — ROB/IQ/LQ/SQ/free-list/front-end-queue occupancy
  never exceeds the configured capacity, and commit bandwidth never
  exceeds ``commit_width``;
* ``freelist_*`` / ``refcount`` — the free lists and the renamer's
  alias reference counts always partition the PRF: a physical register
  is free (refcount 0) or live (refcount > 0), never both, never
  neither (audited every ``audit_interval`` cycles and at the end);
* ``rat_recovery`` — after every squash, the speculative RAT must
  equal an independently-maintained shadow map recovered walk-back
  style (and the shadow is re-audited at run end);
* ``ixu_oxu_exclusive`` — an instruction executed in the IXU must
  never also have issued from the OXU issue queue (the paper's
  filtering invariant);
* ``lsq_order_unrecovered`` / ``ixu_store_premise`` /
  ``ixu_load_premise`` — whenever a store executes, no younger load to
  the same address may survive un-squashed having executed earlier;
  the IXU access-omission premises (paper Section II-D3) are checked
  explicitly;
* ``violation_unhandled`` — a detected store→load order violation must
  actually squash the violating load.

Violations are recorded (bounded by ``max_violations``) with
pipeview-style context: the last few committed instructions with their
issue/complete cycles, so a first divergence is immediately placeable
in the pipeline.  ``strict=True`` raises on the first violation
instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.isa.instruction import DynInst
from repro.isa.registers import RegClass
from repro.validate.oracle import GoldenOracle, OracleResult

#: How many recent commits the divergence context shows.
CONTEXT_DEPTH = 8


class ValidationError(AssertionError):
    """Raised in strict mode on the first violated check."""


@dataclass(frozen=True)
class Violation:
    """One violated check."""

    kind: str
    cycle: int
    seq: Optional[int]
    message: str
    context: str = ""

    def describe(self) -> str:
        lines = [f"[{self.kind}] cycle {self.cycle}"
                 + (f" seq {self.seq}" if self.seq is not None else "")
                 + f": {self.message}"]
        if self.context:
            lines.append(self.context)
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "cycle": self.cycle,
            "seq": self.seq,
            "message": self.message,
            "context": self.context,
        }


@dataclass
class ValidationReport:
    """Outcome of one validated simulation."""

    model: str
    benchmark: str = ""
    committed: int = 0
    cycles: int = 0
    checked_commits: int = 0
    audits: int = 0
    violations: List[Violation] = field(default_factory=list)
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        state = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        label = self.model + (f"/{self.benchmark}" if self.benchmark
                              else "")
        return (f"{label}: {state} "
                f"({self.committed} commits, {self.cycles} cycles, "
                f"{self.audits} audits)")

    def describe(self) -> str:
        lines = [self.summary()]
        for violation in self.violations:
            lines.append(violation.describe())
        if self.truncated:
            lines.append("... further violations suppressed")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "model": self.model,
            "benchmark": self.benchmark,
            "ok": self.ok,
            "committed": self.committed,
            "cycles": self.cycles,
            "checked_commits": self.checked_commits,
            "audits": self.audits,
            "truncated": self.truncated,
            "violations": [v.to_dict() for v in self.violations],
        }


@dataclass(frozen=True)
class _CommitFrame:
    """Pipeview-style context line for one committed instruction."""

    cycle: int
    inst: DynInst
    fetch_cycle: int
    issue_cycle: int
    complete_cycle: int
    in_ixu: bool

    def describe(self) -> str:
        where = "IXU" if self.in_ixu else "OXU"
        return (f"  c{self.cycle:>6} {where} "
                f"f{self.fetch_cycle}/x{self.issue_cycle}"
                f"/w{self.complete_cycle}  {self.inst!r}")


class Validator:
    """Golden-oracle differential checker plus invariant checkers.

    Args:
        trace: The measured trace the core will run (``trace[i].seq ==
            i``); the oracle reference is computed from it up front.
        invariants: Also run the per-cycle/per-event microarchitectural
            invariant checks (differential checks always run).
        strict: Raise :class:`ValidationError` on the first violation
            instead of recording it.
        max_violations: Recording stops after this many violations (the
            first divergence is what matters; later ones are usually
            cascade noise).
        audit_interval: Cycle period of the O(PRF) free-list/refcount
            audit and the RAT shadow comparison.
        reference: A precomputed oracle execution of ``trace``.  The
            fuzzer validates several cores against one trace and passes
            the shared reference so the oracle runs once per trace.

    One instance validates exactly one core run, like an
    ``Observability`` bundle.
    """

    def __init__(self, trace: Sequence[DynInst], invariants: bool = True,
                 strict: bool = False, max_violations: int = 20,
                 audit_interval: int = 64,
                 reference: Optional[OracleResult] = None):
        if trace and trace[0].seq != 0:
            raise ValueError("validated trace must start at seq 0")
        self.trace = trace
        self.reference: OracleResult = (
            reference if reference is not None
            else GoldenOracle().run(trace)
        )
        self.invariants = invariants
        self.strict = strict
        self.max_violations = max_violations
        self.audit_interval = max(1, audit_interval)
        self.report = ValidationReport(model="?")
        self._shadow = GoldenOracle()
        self._expected_seq = 0
        self._context: Deque[_CommitFrame] = deque(maxlen=CONTEXT_DEPTH)
        self._attached = False
        self._has_renamer = False
        self._has_lsq = False
        # Independent walk-back RAT shadow: logical -> physical per
        # class, plus an undo log ordered by sequence number.
        self._shadow_rat: Dict[RegClass, Dict] = {}
        self._rat_undo: Deque[Tuple[int, RegClass, object, int]] = deque()

    # ------------------------------------------------------------------
    # Attachment (called from the core constructor)
    # ------------------------------------------------------------------

    def attach(self, core) -> None:
        if self._attached:
            raise RuntimeError(
                "a Validator validates exactly one core run; build a "
                "fresh one per simulation"
            )
        self._attached = True
        self._core = core
        self.report.model = core.config.name
        renamer = getattr(core, "renamer", None)
        self._has_renamer = renamer is not None
        self._has_lsq = getattr(core, "lsq", None) is not None
        if self._has_renamer:
            self._shadow_rat = {
                cls: rat.snapshot() for cls, rat in renamer.rat.items()
            }

    # ------------------------------------------------------------------
    # Violation recording
    # ------------------------------------------------------------------

    def _record(self, kind: str, cycle: int, seq: Optional[int],
                message: str, with_context: bool = True) -> None:
        context = self.format_context() if with_context else ""
        violation = Violation(kind=kind, cycle=cycle, seq=seq,
                              message=message, context=context)
        if self.strict:
            raise ValidationError(violation.describe())
        if len(self.report.violations) >= self.max_violations:
            self.report.truncated = True
            return
        self.report.violations.append(violation)

    def format_context(self) -> str:
        """Pipeview-style rendering of the most recent commits."""
        if not self._context:
            return "  (no commits yet)"
        header = "  recent commits (cycle, unit, fetch/exec/writeback):"
        return "\n".join(
            [header] + [frame.describe() for frame in self._context]
        )

    # ------------------------------------------------------------------
    # Differential hooks
    # ------------------------------------------------------------------

    def on_commit(self, core, entry) -> None:
        """One instruction committed (program-order callback)."""
        cycle = core.cycle
        inst = entry.inst
        self.report.checked_commits += 1
        expected = self._expected_seq
        if inst.seq != expected:
            self._record(
                "commit_order", cycle, inst.seq,
                f"committed seq {inst.seq}, expected seq {expected} "
                f"(out-of-order or duplicated commit)",
            )
            # Resynchronise past the divergence so later checks stay
            # meaningful rather than cascading.
            self._expected_seq = inst.seq + 1
        else:
            self._expected_seq = expected + 1
        reference = self.reference.records
        if inst.seq < len(reference):
            golden = reference[inst.seq].inst
            if golden is not inst and golden != inst:
                self._record(
                    "commit_mismatch", cycle, inst.seq,
                    f"committed {inst!r} but the trace holds {golden!r}",
                )
        else:
            self._record(
                "commit_mismatch", cycle, inst.seq,
                f"committed seq {inst.seq} beyond the "
                f"{len(reference)}-instruction trace",
            )
        # Architectural shadow replay of the committed stream.
        self._shadow.step(inst)
        self._context.append(_CommitFrame(
            cycle=cycle,
            inst=inst,
            fetch_cycle=entry.fetch_cycle,
            issue_cycle=(entry.ixu_exec_cycle if entry.executed_in_ixu
                         else entry.issue_cycle),
            complete_cycle=entry.complete_cycle,
            in_ixu=entry.executed_in_ixu,
        ))
        if self.invariants:
            if entry.executed_in_ixu and entry.issued:
                self._record(
                    "ixu_oxu_exclusive", cycle, inst.seq,
                    f"{inst!r} executed in the IXU and also issued "
                    f"from the OXU issue queue",
                )
            # The undo log only needs squashable (in-flight) entries.
            undo = self._rat_undo
            while undo and undo[0][0] <= inst.seq:
                undo.popleft()

    # ------------------------------------------------------------------
    # Invariant hooks
    # ------------------------------------------------------------------

    def on_rename(self, core, entry) -> None:
        """An instruction was renamed (shadow-RAT bookkeeping)."""
        if not self.invariants:
            return
        renamed = entry.renamed
        if renamed is None or renamed.dest_cls is None:
            return
        logical = entry.inst.dest
        shadow = self._shadow_rat[renamed.dest_cls]
        self._rat_undo.append(
            (entry.seq, renamed.dest_cls, logical, shadow[logical])
        )
        shadow[logical] = renamed.dest

    def on_squash(self, core, boundary_seq: int) -> None:
        """The core squashed everything younger than ``boundary_seq``."""
        if not self.invariants:
            return
        undo = self._rat_undo
        while undo and undo[-1][0] > boundary_seq:
            _, cls, logical, old_physical = undo.pop()
            self._shadow_rat[cls][logical] = old_physical
        self._check_rat_shadow(core, f"after squash to seq "
                                     f"{boundary_seq}")

    def _check_rat_shadow(self, core, when: str) -> None:
        for cls, rat in core.renamer.rat.items():
            actual = rat.snapshot()
            shadow = self._shadow_rat[cls]
            if actual != shadow:
                diffs = [
                    f"{logical!r}: core p{actual[logical]} != "
                    f"shadow p{shadow[logical]}"
                    for logical in sorted(actual, key=lambda r: r.index)
                    if actual[logical] != shadow[logical]
                ]
                self._record(
                    "rat_recovery", core.cycle, None,
                    f"{cls.value} RAT diverged from walk-back shadow "
                    f"{when}: " + "; ".join(diffs[:4]),
                )
                # Resynchronise to avoid cascading reports.
                self._shadow_rat[cls] = actual

    def on_violation(self, core, load_entry, store_entry) -> None:
        """The core detected a store→load order violation.

        Called after recovery ran: the violating load must be squashed.
        """
        if not self.invariants:
            return
        if not load_entry.squashed:
            self._record(
                "violation_unhandled", core.cycle, load_entry.seq,
                f"order violation of {load_entry.inst!r} by "
                f"{store_entry.inst!r} did not squash the load",
            )

    def on_store_executed(self, core, store_entry, in_ixu: bool) -> None:
        """A store just executed; audit the LSQ ordering invariants."""
        if not self.invariants or not self._has_lsq:
            return
        addr = store_entry.inst.mem_addr
        seq = store_entry.seq
        for load in core.lsq.loads:
            if (load.seq > seq and load.mem_executed
                    and not load.squashed
                    and load.inst.mem_addr == addr):
                if in_ixu:
                    kind = "ixu_store_premise"
                    message = (
                        f"IXU-executed store {store_entry.inst!r} "
                        f"skipped the violation search but younger "
                        f"load {load.inst!r} had already executed"
                    )
                elif not load.lsq_written:
                    kind = "ixu_load_premise"
                    message = (
                        f"load {load.inst!r} omitted its LSQ write "
                        f"(older-stores-executed premise) but older "
                        f"store {store_entry.inst!r} executed later"
                    )
                else:
                    kind = "lsq_order_unrecovered"
                    message = (
                        f"store {store_entry.inst!r} executed after "
                        f"younger same-address load {load.inst!r} "
                        f"without triggering recovery"
                    )
                self._record(kind, core.cycle, load.seq, message)

    def on_cycle(self, core, committed: int) -> None:
        """Per-cycle invariant sampling (cheap checks + periodic audit)."""
        if not self.invariants:
            return
        cycle = core.cycle
        config = core.config
        if committed > config.commit_width:
            self._record(
                "commit_width", cycle, None,
                f"committed {committed} > commit width "
                f"{config.commit_width}",
            )
        if self._has_renamer:
            rob = core.rob
            if len(rob) > rob.capacity:
                self._record(
                    "occupancy_rob", cycle, None,
                    f"ROB holds {len(rob)} > {rob.capacity}",
                )
            iq = core.iq
            if len(iq) > iq.capacity:
                self._record(
                    "occupancy_iq", cycle, None,
                    f"IQ holds {len(iq)} > {iq.capacity}",
                )
            lsq = core.lsq
            if lsq.loads_free < 0:
                self._record(
                    "occupancy_lq", cycle, None,
                    f"load queue exceeds its "
                    f"{lsq.load_capacity}-entry capacity",
                )
            if lsq.stores_free < 0:
                self._record(
                    "occupancy_sq", cycle, None,
                    f"store queue exceeds its "
                    f"{lsq.store_capacity}-entry capacity",
                )
            for cls, free in core.renamer.free.items():
                if len(free) > free.capacity:
                    self._record(
                        "occupancy_freelist", cycle, None,
                        f"{cls.value} free list holds {len(free)} > "
                        f"capacity {free.capacity}",
                    )
            if cycle % self.audit_interval == 0:
                self._audit_freelists(core)
        else:
            queue = core.frontend_q
            if len(queue) > config.frontend_queue_depth:
                self._record(
                    "occupancy_frontend_queue", cycle, None,
                    f"front-end queue holds {len(queue)} > "
                    f"{config.frontend_queue_depth}",
                )

    def _audit_freelists(self, core, quiescent: bool = False) -> None:
        """Free lists and refcounts partition the PRF exactly.

        When ``quiescent`` (end of run, nothing in flight) additionally
        requires every live register's refcount to equal the number of
        RAT entries aliasing it.
        """
        self.report.audits += 1
        renamer = core.renamer
        for cls, free in renamer.free.items():
            refcounts = renamer.refcounts(cls)
            free_ids = list(free)
            free_set = set(free_ids)
            if len(free_set) != len(free_ids):
                dupes = sorted(
                    i for i in free_set if free_ids.count(i) > 1
                )
                self._record(
                    "freelist_double_free", core.cycle, None,
                    f"{cls.value} free list holds duplicate ids "
                    f"{dupes[:8]}",
                )
            live = 0
            for preg, count in enumerate(refcounts):
                if count < 0:
                    self._record(
                        "refcount", core.cycle, None,
                        f"{cls.value} p{preg} refcount is {count}",
                    )
                in_free = preg in free_set
                if in_free and count > 0:
                    self._record(
                        "freelist_double_free", core.cycle, None,
                        f"{cls.value} p{preg} is free but still "
                        f"referenced (refcount {count})",
                    )
                elif not in_free and count == 0:
                    self._record(
                        "freelist_leak", core.cycle, None,
                        f"{cls.value} p{preg} has refcount 0 but is "
                        f"not on the free list (leaked)",
                    )
                if count > 0:
                    live += 1
            if live + len(free_set) != free.capacity:
                self._record(
                    "freelist_leak", core.cycle, None,
                    f"{cls.value} live ({live}) + free "
                    f"({len(free_set)}) != capacity {free.capacity}",
                )
            if quiescent:
                mapped: Dict[int, int] = {}
                for preg in renamer.rat[cls].snapshot().values():
                    mapped[preg] = mapped.get(preg, 0) + 1
                for preg, count in enumerate(refcounts):
                    expected = mapped.get(preg, 0)
                    if count != expected:
                        self._record(
                            "refcount", core.cycle, None,
                            f"{cls.value} p{preg} refcount {count} != "
                            f"{expected} RAT aliases at quiescence",
                        )

    # ------------------------------------------------------------------
    # Finalisation (called from core.run)
    # ------------------------------------------------------------------

    def finalize(self, core) -> ValidationReport:
        report = self.report
        report.committed = core.stats.committed
        report.cycles = core.stats.cycles
        benchmark = getattr(core.stats, "benchmark", "")
        if benchmark:
            report.benchmark = benchmark
        if self._expected_seq != len(self.trace):
            self._record(
                "commit_missing", core.cycle, self._expected_seq,
                f"run ended with {self._expected_seq} of "
                f"{len(self.trace)} instructions committed",
            )
        regs, mem = self._shadow.snapshot()
        reference = self.reference
        if regs != reference.final_regs:
            diffs = sorted(
                (reg for reg in set(regs) | set(reference.final_regs)
                 if regs.get(reg) != reference.final_regs.get(reg)),
                key=lambda r: (r.cls.value, r.index),
            )
            self._record(
                "arch_state", core.cycle, None,
                f"final register state diverges from the oracle on "
                f"{len(diffs)} register(s): "
                + ", ".join(repr(r) for r in diffs[:8]),
            )
        if mem != reference.final_mem:
            diffs = sorted(
                addr for addr in set(mem) | set(reference.final_mem)
                if mem.get(addr) != reference.final_mem.get(addr)
            )
            self._record(
                "arch_state", core.cycle, None,
                f"final memory state diverges from the oracle at "
                f"{len(diffs)} address(es): "
                + ", ".join(hex(a) for a in diffs[:8]),
            )
        if self.invariants and self._has_renamer:
            self._check_rat_shadow(core, "at end of run")
            self._audit_freelists(core, quiescent=True)
        return report
