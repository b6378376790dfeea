"""Trace serialization: save and load dynamic instruction streams.

Traces are stored one instruction per line in a compact text format so
that a workload can be generated once and replayed elsewhere (or edited
by hand for directed tests)::

    # repro-trace v1
    <pc> <op> [d=<reg>] [s=<reg>,<reg>] [m=<addr>:<size>] [T:<target>|N]

Registers serialize as ``r<N>`` / ``f<N>``.  Sequence numbers are
implicit (line order); loading renumbers from zero.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, List, TextIO, Union

from repro.atomicio import replacing
from repro.isa.instruction import DynInst
from repro.isa.opclass import OpClass
from repro.isa.registers import Reg, RegClass, fp_reg, int_reg

HEADER = "# repro-trace v1"


class TraceFormatError(ValueError):
    """The file is not a valid repro trace."""


def _reg_to_text(reg: Reg) -> str:
    prefix = "r" if reg.cls is RegClass.INT else "f"
    return f"{prefix}{reg.index}"


def _reg_from_text(text: str) -> Reg:
    if not text or text[0] not in "rf":
        raise TraceFormatError(f"bad register {text!r}")
    index = int(text[1:])
    return int_reg(index) if text[0] == "r" else fp_reg(index)


def _inst_to_line(inst: DynInst) -> str:
    parts = [f"{inst.pc:#x}", inst.op.value]
    if inst.dest is not None:
        parts.append(f"d={_reg_to_text(inst.dest)}")
    if inst.srcs:
        parts.append(
            "s=" + ",".join(_reg_to_text(s) for s in inst.srcs)
        )
    if inst.is_mem:
        parts.append(f"m={inst.mem_addr:#x}:{inst.mem_size}")
    if inst.is_branch:
        parts.append(f"T:{inst.target:#x}" if inst.taken else "N")
    return " ".join(parts)


def _inst_from_line(seq: int, line: str) -> DynInst:
    fields = line.split()
    if len(fields) < 2:
        raise TraceFormatError(f"line {seq + 2}: too few fields")
    try:
        pc = int(fields[0], 16)
        op = OpClass(fields[1])
    except ValueError as error:
        raise TraceFormatError(f"line {seq + 2}: {error}") from None
    dest = None
    srcs = ()
    mem_addr = None
    mem_size = 0
    taken = False
    target = None
    for field in fields[2:]:
        if field.startswith("d="):
            dest = _reg_from_text(field[2:])
        elif field.startswith("s="):
            srcs = tuple(
                _reg_from_text(r) for r in field[2:].split(",")
            )
        elif field.startswith("m="):
            addr_text, size_text = field[2:].split(":")
            mem_addr = int(addr_text, 16)
            mem_size = int(size_text)
        elif field.startswith("T:"):
            taken = True
            target = int(field[2:], 16)
        elif field == "N":
            taken = False
        else:
            raise TraceFormatError(
                f"line {seq + 2}: unknown field {field!r}"
            )
    return DynInst(seq=seq, pc=pc, op=op, dest=dest, srcs=srcs,
                   mem_addr=mem_addr, mem_size=mem_size, taken=taken,
                   target=target)


def save_trace(trace: Iterable[DynInst],
               destination: Union[str, Path, TextIO]) -> int:
    """Write a trace; returns the instruction count.

    A path is published atomically: a failed write leaves any previous
    file there untouched.
    """
    if isinstance(destination, (str, Path)):
        with replacing(destination) as stream:
            return save_trace(trace, stream)
    destination.write(HEADER + "\n")
    count = 0
    for inst in trace:
        destination.write(_inst_to_line(inst) + "\n")
        count += 1
    return count


def load_trace(source: Union[str, Path, TextIO]) -> List[DynInst]:
    """Read a trace saved by :func:`save_trace` (renumbered from 0)."""
    own = isinstance(source, (str, Path))
    stream = open(source) if own else source
    try:
        header = stream.readline().rstrip("\n")
        if header != HEADER:
            raise TraceFormatError(
                f"bad header {header!r}; expected {HEADER!r}"
            )
        trace: List[DynInst] = []
        for line in stream:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            trace.append(_inst_from_line(len(trace), line))
        return trace
    finally:
        if own:
            stream.close()


def dumps_trace(trace: Iterable[DynInst]) -> str:
    """Serialize to a string (round-trips with :func:`loads_trace`)."""
    buffer = io.StringIO()
    save_trace(trace, buffer)
    return buffer.getvalue()


def loads_trace(text: str) -> List[DynInst]:
    """Parse a trace from a string."""
    return load_trace(io.StringIO(text))
