"""Renamer: ties the RATs, free lists and PRFs into one rename port.

The cores call :meth:`Renamer.rename` once per instruction in program
order; squashes undo youngest-first from the returned records, and the
commit stage calls :meth:`Renamer.release` with the previous mapping of
each committed destination.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.isa.instruction import DynInst
from repro.isa.registers import (
    NUM_FP_REGS,
    NUM_INT_REGS,
    Reg,
    RegClass,
    fp_reg,
    int_reg,
)
from repro.rename.freelist import FreeList
from repro.rename.prf import NEVER, PhysicalRegisterFile
from repro.rename.rat import RAT, RenameUndo
from repro.rename.scoreboard import Scoreboard


class RenamedOperands:
    """Physical operands of one renamed instruction.

    ``srcs`` pairs each source with its register class; ``dest`` is the
    freshly-allocated physical destination (or None) of the logical
    register ``logical``; ``old_dest`` is the physical register
    ``logical`` mapped to before, released at commit
    (:meth:`Renamer.release`) and restored by a squash
    (:meth:`Renamer.squash` rebuilds the RAT undo record from these
    fields).  ``eliminated`` marks a RENO-eliminated move:
    ``dest`` then *aliases* the source's physical register instead of
    naming a fresh one.

    A plain slotted record, the one record rename builds per
    instruction (on the simulator's hottest path).
    """

    __slots__ = ("srcs", "dest_cls", "dest", "old_dest", "logical",
                 "eliminated")

    def __init__(
        self,
        srcs: Tuple[Tuple[RegClass, int], ...],
        dest_cls: Optional[RegClass],
        dest: Optional[int],
        old_dest: Optional[int],
        logical: Optional[Reg],
        eliminated: bool = False,
    ):
        self.srcs = srcs
        self.dest_cls = dest_cls
        self.dest = dest
        self.old_dest = old_dest
        self.logical = logical
        self.eliminated = eliminated


class Renamer:
    """Physical-register renaming for both register classes.

    Args:
        int_prf_entries: INT PRF capacity (Table I: 128).
        fp_prf_entries: FP PRF capacity (Table I: 96).
    """

    def __init__(self, int_prf_entries: int = 128,
                 fp_prf_entries: int = 96):
        if int_prf_entries <= NUM_INT_REGS:
            raise ValueError("INT PRF must exceed the logical registers")
        if fp_prf_entries <= NUM_FP_REGS:
            raise ValueError("FP PRF must exceed the logical registers")
        self.prf = {
            RegClass.INT: PhysicalRegisterFile(int_prf_entries),
            RegClass.FP: PhysicalRegisterFile(fp_prf_entries),
        }
        self.scoreboard = {
            cls: Scoreboard(prf) for cls, prf in self.prf.items()
        }
        # Architectural registers start mapped to the first N pregs.
        int_map: Dict[Reg, int] = {
            int_reg(i): i for i in range(NUM_INT_REGS)
        }
        fp_map: Dict[Reg, int] = {
            fp_reg(i): i for i in range(NUM_FP_REGS)
        }
        self.rat = {
            RegClass.INT: RAT(int_map),
            RegClass.FP: RAT(fp_map),
        }
        self.free = {
            RegClass.INT: FreeList(
                range(NUM_INT_REGS, int_prf_entries),
                capacity=int_prf_entries,
            ),
            RegClass.FP: FreeList(
                range(NUM_FP_REGS, fp_prf_entries),
                capacity=fp_prf_entries,
            ),
        }
        # Reference counts for RENO move elimination: an eliminated move
        # aliases its source's physical register, which must stay
        # allocated until every alias has been superseded and committed.
        # Architectural initial mappings start live (count 1).
        self._refcount = {
            RegClass.INT: [0] * int_prf_entries,
            RegClass.FP: [0] * fp_prf_entries,
        }
        for index in range(NUM_INT_REGS):
            self._refcount[RegClass.INT][index] = 1
        for index in range(NUM_FP_REGS):
            self._refcount[RegClass.FP][index] = 1
        self.moves_eliminated = 0

    def can_rename(self, inst: DynInst) -> bool:
        """True when a physical destination is available for ``inst``."""
        if inst.dest is None:
            return True
        return self.free[inst.dest.cls].can_allocate()

    def rename(self, inst: DynInst) -> RenamedOperands:
        """Rename ``inst``'s operands; caller must check can_rename."""
        rat = self.rat
        srcs = inst.srcs
        if srcs:
            pairs = []
            for src in srcs:
                cls = src.cls
                table = rat[cls]
                table.reads += 1
                pairs.append((cls, table._map[src.index]))
            srcs = tuple(pairs)
        dest = inst.dest
        if dest is None:
            return RenamedOperands(srcs, None, None, None, None)
        cls = dest.cls
        # Pop a free register, mark it pending and point the RAT at it,
        # all as stores on the structures' fields: one rename per
        # committed instruction makes this the hottest allocation site
        # in the simulator.
        new_preg = self.free[cls]._free.popleft()
        self._refcount[cls][new_preg] = 1
        prf = self.prf[cls]
        prf.ready_cycles[new_preg] = NEVER
        prf._written[new_preg] = NEVER
        table = rat[cls]
        index = dest.index
        tmap = table._map
        old_preg = tmap[index]
        tmap[index] = new_preg
        table.writes += 1
        return RenamedOperands(srcs, cls, new_preg, old_preg, dest)

    def rename_move(self, inst: DynInst) -> RenamedOperands:
        """RENO move elimination (paper Section VII-C).

        The move's destination is pointed at its *source's* physical
        register — no new register, no execution.  The alias holds a
        reference on the shared register so it is not reclaimed while
        either name is live.
        """
        if inst.dest is None or len(inst.srcs) != 1:
            raise ValueError("rename_move requires a 1-source move")
        src = inst.srcs[0]
        cls = src.cls
        src_preg = self.rat[cls].lookup(src)
        self._refcount[cls][src_preg] += 1
        undo = self.rat[cls].rename(inst.dest, src_preg)
        self.moves_eliminated += 1
        return RenamedOperands(
            srcs=((cls, src_preg),), dest_cls=cls, dest=src_preg,
            old_dest=undo.old_physical, logical=inst.dest, eliminated=True,
        )

    def release(self, cls: RegClass, preg: int) -> None:
        """Drop one reference to ``preg``; reclaim it at zero.

        The commit stage calls it once per committed destination, with
        the previous mapping (now dead); :meth:`squash` with the
        squashed instruction's own register.
        """
        refcount = self._refcount[cls]
        remaining = refcount[preg] - 1
        refcount[preg] = remaining
        if remaining == 0:
            self.free[cls].release(preg)
        elif remaining < 0:
            raise RuntimeError(f"refcount underflow on {cls} p{preg}")

    def squash(self, renamed: RenamedOperands) -> None:
        """Undo one rename (call youngest-first across the squash set)."""
        cls = renamed.dest_cls
        if cls is None:
            return
        new_preg = renamed.dest
        self.rat[cls].undo(
            RenameUndo(renamed.logical, renamed.old_dest, new_preg))
        if not renamed.eliminated:
            self.prf[cls].reset_entry(new_preg)
        # An eliminated move drops the alias's reference on the shared
        # register; a fresh destination goes back to the free list.
        self.release(cls, new_preg)

    def free_regs(self, cls: RegClass) -> int:
        """Free physical registers of ``cls`` (occupancy stats)."""
        return len(self.free[cls])

    def refcounts(self, cls: RegClass) -> Tuple[int, ...]:
        """Per-preg alias reference counts of ``cls`` (validation)."""
        return tuple(self._refcount[cls])
