"""Dynamic trace generation from a synthetic static program.

The generator walks the program's control flow, sampling loop trip counts,
hammock outcomes and memory stream addresses from a seeded RNG, and emits
:class:`~repro.isa.DynInst` records.  The same (benchmark, seed, length)
triple always yields an identical trace, so every core model sees the same
dynamic instruction stream — the property the paper's relative-IPC
methodology depends on.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.isa.instruction import DynInst
from repro.isa.opclass import is_fp
from repro.workloads.profiles import get_profile
from repro.workloads.program import (
    BasicBlock,
    BranchKind,
    MemStream,
    StaticInst,
    StreamKind,
    SyntheticProgram,
    build_program,
)


class _StreamState:
    """Mutable cursor over one memory stream."""

    def __init__(self, stream: MemStream, rng: random.Random):
        self._stream = stream
        self._rng = rng
        self._cursor = 0
        # Tight reuse window: loads re-read *recent* stores so that
        # store-to-load forwarding and ordering hazards occur while the
        # store is still in flight (a 32-entry store queue).
        self._recent_stores: Deque[int] = deque(maxlen=3)

    def next_addr(self, is_store: bool) -> int:
        """Produce the next effective address on this stream."""
        stream = self._stream
        if stream.kind is StreamKind.SEQ:
            addr = stream.base + (self._cursor * stream.stride) % stream.size
            self._cursor += 1
            return addr
        if stream.kind is StreamKind.RAND:
            slots = stream.size // 8
            return stream.base + 8 * self._rng.randrange(slots)
        # STACK: stores populate a small hot set; loads mostly re-read it,
        # creating store-to-load forwarding and ordering hazards.
        slots = stream.size // 8
        if is_store:
            addr = stream.base + 8 * self._rng.randrange(slots)
            self._recent_stores.append(addr)
            return addr
        if self._recent_stores and self._rng.random() < 0.6:
            return self._recent_stores[-1 - self._rng.randrange(
                len(self._recent_stores))]
        return stream.base + 8 * self._rng.randrange(slots)


_new_inst = object.__new__


class TraceGenerator:
    """Walks a :class:`SyntheticProgram` and emits dynamic instructions.

    ``seq`` is the number the next instruction gets.  Setting it to 0
    after a warm-up slice numbers the measured slice that follows from
    0, as the core models require (``trace[i].seq == i``).
    """

    def __init__(self, program: SyntheticProgram, seed: int = 0):
        self._program = program
        self._rng = random.Random(f"{program.profile.name}:dyn:{seed}")
        self._streams = [
            _StreamState(s, self._rng) for s in program.streams
        ]
        self.seq = 0
        # Data-dependent ("random") branches are Markov-correlated: real
        # hard branches repeat their last outcome more often than not.
        self._last_outcome: Dict[int, bool] = {}
        # Control-flow cursor.
        self._block_idx = 0
        self._inst_idx = 0
        self._in_function: Optional[BasicBlock] = None
        self._return_block = 0
        self._trips_left = self._sample_trips(program.blocks[0])

    def _sample_trips(self, block: BasicBlock) -> int:
        """Trip count for one visit of ``block``'s loop.

        Trip counts are fixed per block (sampled once at program build):
        loop exits are then periodic, which is what lets a history-based
        predictor learn them — the property real loop branches have.
        """
        return max(1, round(block.loop_trip_mean))

    def _current_block(self) -> BasicBlock:
        if self._in_function is not None:
            return self._in_function
        return self._program.blocks[self._block_idx]

    def _enter_block(self, index: int) -> None:
        self._block_idx = index % len(self._program.blocks)
        self._inst_idx = 0
        self._in_function = None
        self._trips_left = self._sample_trips(
            self._program.blocks[self._block_idx]
        )

    def _emit(self, static: StaticInst, mem_addr: Optional[int] = None,
              mem_size: int = 0, taken: bool = False,
              target: Optional[int] = None) -> DynInst:
        # The keyword constructor's checks hold by construction here, and
        # the decoded fields are copied from the static instruction.
        inst = _new_inst(DynInst)
        inst.seq = self.seq
        self.seq += 1
        inst.pc = static.pc
        inst.op = static.op
        inst.dest = static.dest
        inst.srcs = static.srcs
        inst.mem_addr = mem_addr
        inst.mem_size = mem_size
        inst.taken = taken
        inst.target = target
        (inst.is_branch, inst.is_mem, inst.is_load, inst.is_store,
         inst.fu_type, inst.latency, inst.ixu_eligible, inst.src_flats,
         inst.dest_flat) = static.decoded
        return inst

    def _step(self) -> DynInst:
        """Advance one dynamic instruction."""
        block = self._current_block()
        static = block.insts[self._inst_idx]
        is_branch, is_mem, _, is_store = static.decoded[:4]

        if is_mem:
            addr = self._streams[static.stream_id].next_addr(is_store)
            self._inst_idx += 1
            return self._emit(static, addr, static.mem_size)

        if not is_branch:
            self._inst_idx += 1
            return self._emit(static)

        behavior = static.branch
        assert behavior is not None
        if behavior.kind in (BranchKind.HAMMOCK, BranchKind.RANDOM):
            if behavior.kind is BranchKind.RANDOM:
                last = self._last_outcome.get(static.pc)
                if last is None or self._rng.random() >= 0.75:
                    taken = self._rng.random() < behavior.taken_prob
                else:
                    taken = last
                self._last_outcome[static.pc] = taken
            else:
                taken = self._rng.random() < behavior.taken_prob
            if taken:
                target = static.pc + 4 * (behavior.skip + 1)
                self._inst_idx += behavior.skip + 1
                return self._emit(static, taken=True, target=target)
            self._inst_idx += 1
            return self._emit(static, taken=False)

        if behavior.kind is BranchKind.LOOP:
            if self._trips_left > 1:
                self._trips_left -= 1
                self._inst_idx = 0
                return self._emit(static, taken=True, target=block.pc)
            inst = self._emit(static, taken=False)
            self._enter_block(self._block_idx + 1)
            return inst

        if behavior.kind is BranchKind.CALL:
            callee = self._program.functions[behavior.callee]
            inst = self._emit(static, taken=True, target=callee.pc)
            self._return_block = self._block_idx + 1
            self._in_function = callee
            self._inst_idx = 0
            return inst

        if behavior.kind is BranchKind.RET:
            target_block = self._program.blocks[
                self._return_block % len(self._program.blocks)
            ]
            inst = self._emit(static, taken=True, target=target_block.pc)
            self._enter_block(self._return_block)
            return inst

        # UNCOND: jump to the next block.
        next_block = self._program.blocks[
            (self._block_idx + 1) % len(self._program.blocks)
        ]
        inst = self._emit(static, taken=True, target=next_block.pc)
        self._enter_block(self._block_idx + 1)
        return inst

    def generate(self, n: int) -> List[DynInst]:
        """Generate the next ``n`` dynamic instructions."""
        return [self._step() for _ in range(n)]


def generate_trace(
    benchmark: str, n: int, seed: int = 0
) -> List[DynInst]:
    """Build the program for ``benchmark`` and generate ``n`` instructions.

    Convenience entry point used by experiments and examples.
    """
    profile = get_profile(benchmark)
    program = build_program(profile, seed=seed)
    return TraceGenerator(program, seed=seed).generate(n)


def trace_mix(trace: List[DynInst]) -> Dict[str, float]:
    """Measure the category mix of a generated trace.

    Returns fractions for: int_ops (paper's "INT operations"), fp_ops,
    loads, stores, branches — useful for validating profiles.
    """
    if not trace:
        return {"int_ops": 0.0, "fp_ops": 0.0, "loads": 0.0,
                "stores": 0.0, "branches": 0.0}
    n = len(trace)
    fp_ops = sum(1 for i in trace if is_fp(i.op))
    loads = sum(1 for i in trace if i.is_load)
    stores = sum(1 for i in trace if i.is_store)
    branches = sum(1 for i in trace if i.is_branch)
    int_ops = n - fp_ops - loads - stores
    return {
        "int_ops": int_ops / n,
        "fp_ops": fp_ops / n,
        "loads": loads / n,
        "stores": stores / n,
        "branches": branches / n,
    }
