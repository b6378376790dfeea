"""Dynamic instruction record — the unit of a simulation trace.

The simulator is trace-driven: the workload generator produces a stream of
``DynInst`` records carrying everything the timing model needs (op class,
register operands, memory address, branch outcome).  The cores annotate a
*shadow* of per-instruction pipeline state elsewhere and never write to a
trace record, so a trace can be replayed across models
(``tests/test_trace_replay.py`` holds that contract).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.isa.opclass import (
    FU_FOR_OPCLASS,
    IXU_ELIGIBLE,
    LATENCY,
    OpClass,
    is_branch,
    is_load,
    is_mem,
    is_store,
)
from repro.isa.registers import Reg

#: The fields a ``DynInst`` derives from its static instruction alone,
#: in the order :func:`decode` returns them.
DECODED_FIELDS = ("is_branch", "is_mem", "is_load", "is_store", "fu_type",
                  "latency", "ixu_eligible", "src_flats", "dest_flat")


#: The op-class part of :func:`decode`, per op class.
_OP_FIELDS = {
    op: (is_branch(op), is_mem(op), is_load(op), is_store(op),
         FU_FOR_OPCLASS[op], LATENCY[op], op in IXU_ELIGIBLE)
    for op in OpClass
}


def decode(op: OpClass, dest: Optional[Reg],
           srcs: Tuple[Reg, ...]) -> tuple:
    """The :data:`DECODED_FIELDS` values of an instruction.

    The category flags, FU routing, base latency and IXU eligibility are
    pure functions of the op class, and the flat register indices (see
    ``Reg.flat``) of the operands: the cores read them every cycle for
    every in-flight instruction, so they are resolved once — per static
    instruction when a program is built, and the trace generator copies
    them into each dynamic instance.
    """
    return _OP_FIELDS[op] + (tuple(s.flat for s in srcs),
                             dest.flat if dest is not None else None)


class DynInst:
    """One dynamic instruction as it appears in a trace.

    Attributes:
        seq: Position in the dynamic instruction stream (0-based).
        pc: Instruction address; repeated PCs let predictors train.
        op: Operation class.
        dest: Destination logical register, or None.
        srcs: Source logical registers (zero registers are pre-filtered
            by the generator and never appear here).
        mem_addr: Effective address for loads/stores, else None.
        mem_size: Access size in bytes for loads/stores, else 0.
        taken: Branch outcome for control instructions, else False.
        target: Branch target address when taken, else None.
        is_branch ... dest_flat: the :data:`DECODED_FIELDS`; they take no
            part in ``==``, ``hash`` or ``repr``.

    The keyword constructor checks the record and decodes it; the trace
    generator fills the slots straight from a decoded static instruction
    instead (see ``TraceGenerator._emit``).
    """

    __slots__ = ("seq", "pc", "op", "dest", "srcs", "mem_addr", "mem_size",
                 "taken", "target") + DECODED_FIELDS

    def __init__(self, seq: int, pc: int, op: OpClass,
                 dest: Optional[Reg] = None, srcs: Tuple[Reg, ...] = (),
                 mem_addr: Optional[int] = None, mem_size: int = 0,
                 taken: bool = False, target: Optional[int] = None):
        mem = is_mem(op)
        if mem and mem_addr is None:
            raise ValueError(f"{op} requires a memory address")
        if not mem and mem_addr is not None:
            raise ValueError(f"{op} must not carry a memory address")
        if taken and target is None:
            raise ValueError("taken branch requires a target")
        self.seq = seq
        self.pc = pc
        self.op = op
        self.dest = dest
        self.srcs = srcs
        self.mem_addr = mem_addr
        self.mem_size = mem_size
        self.taken = taken
        self.target = target
        (self.is_branch, self.is_mem, self.is_load, self.is_store,
         self.fu_type, self.latency, self.ixu_eligible, self.src_flats,
         self.dest_flat) = decode(op, dest, srcs)

    def _key(self) -> tuple:
        return (self.seq, self.pc, self.op, self.dest, self.srcs,
                self.mem_addr, self.mem_size, self.taken, self.target)

    def __eq__(self, other) -> bool:
        if other.__class__ is not DynInst:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def fall_through(self) -> int:
        """Address of the next sequential instruction."""
        return self.pc + 4

    @property
    def next_pc(self) -> int:
        """Address control actually flows to after this instruction."""
        if self.taken and self.target is not None:
            return self.target
        return self.fall_through

    def __repr__(self) -> str:
        operands = ", ".join(repr(s) for s in self.srcs)
        dest = f"{self.dest!r} <- " if self.dest is not None else ""
        extra = ""
        if self.is_mem:
            extra = f" [0x{self.mem_addr:x}]"
        elif self.is_branch:
            extra = f" ({'T' if self.taken else 'NT'})"
        return (
            f"<#{self.seq} pc=0x{self.pc:x} {self.op.value} "
            f"{dest}{operands}{extra}>"
        )
