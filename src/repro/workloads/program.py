"""Block-structured synthetic static program synthesis.

A :class:`SyntheticProgram` is a loop nest of basic blocks plus a small set
of callable function blocks.  Each static instruction carries fixed logical
registers (so dependence structure is stable across loop iterations, as in
real code), an optional memory-stream binding, and — for branches — a
behaviour descriptor that the trace generator samples outcomes from.

Control-flow shape:

* Every basic block ends in a *loop branch*: taken re-enters the block
  (conditional backward branch), not-taken falls through to the next block;
  the last block wraps to the first (the outer loop).
* Mid-block conditional branches are *hammocks*: when taken they skip a few
  following instructions of the same block.  A profile-controlled fraction
  of them have data-dependent (random) outcomes.
* Some blocks end by calling a function block, which returns — this
  exercises the return-address stack.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.isa.instruction import decode
from repro.isa.opclass import OpClass
from repro.isa.registers import Reg, RegClass, fp_reg, int_reg
from repro.workloads.profiles import BenchmarkProfile, Mix

#: Base address for code; instruction PCs are 4-byte spaced from here.
CODE_BASE = 0x0040_0000
#: Base address for data; streams are laid out upward from here.
DATA_BASE = 0x1000_0000

#: Rotating destination registers (r0/f0 .. _NUM_ROT-1); higher-numbered
#: registers up to 29 are long-lived "far" values, 30 is the stack-ish
#: base register, 31 is the zero register (never used).
_NUM_ROT = 28
_FAR_REGS = tuple(range(_NUM_ROT, 30))
_BASE_REG = 30


class StreamKind(enum.Enum):
    """Memory access pattern of a stream."""

    SEQ = "seq"        # sequential walk, fixed stride
    RAND = "rand"      # uniform random within the working set
    STACK = "stack"    # small hot region with store->load reuse


class BranchKind(enum.Enum):
    """Behaviour class of a static branch."""

    LOOP = "loop"          # block back-edge, geometric trip count
    HAMMOCK = "hammock"    # forward skip, biased outcome
    RANDOM = "random"      # forward skip, data-dependent outcome
    UNCOND = "uncond"      # always-taken direct jump (to next block)
    CALL = "call"          # direct call to a function block
    RET = "ret"            # return from a function block


@dataclass(unsafe_hash=True, slots=True)
class BranchBehavior:
    """Outcome model for a static branch.

    ``taken_prob`` is used by HAMMOCK/RANDOM branches; LOOP branches use
    the owning block's trip count; UNCOND/CALL/RET are always taken.

    Like :class:`StaticInst`, a plain slotted record that is never
    written after construction (by convention, not ``frozen``: a
    program builds one per static branch).
    """

    kind: BranchKind
    taken_prob: float = 0.5
    skip: int = 0          # instructions skipped when a hammock is taken
    callee: int = -1       # function-block index for CALL


@dataclass(frozen=True)
class MemStream:
    """A memory reference stream with its own region and pattern."""

    kind: StreamKind
    base: int
    size: int              # bytes
    stride: int = 8


@dataclass(unsafe_hash=True, slots=True)
class StaticInst:
    """One static instruction of the synthetic program.

    ``decoded`` holds its :data:`~repro.isa.instruction.DECODED_FIELDS`,
    resolved once here and copied into every dynamic instance.

    A plain slotted record, compared and hashed by field: a program
    builds one per static instruction, and a ``frozen`` dataclass pays
    for its guard on every field it sets.  It is never written after
    construction, as the trace's ``DynInst`` records are not.
    """

    pc: int
    op: OpClass
    dest: Optional[Reg] = None
    srcs: Tuple[Reg, ...] = ()
    stream_id: int = -1                  # memory stream binding
    mem_size: int = 8
    branch: Optional[BranchBehavior] = None
    decoded: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.decoded = decode(self.op, self.dest, self.srcs)


@dataclass(frozen=True)
class BasicBlock:
    """A straight-line block ending in a control transfer."""

    index: int
    insts: Tuple[StaticInst, ...]
    loop_trip_mean: float

    @property
    def pc(self) -> int:
        """Address of the first instruction."""
        return self.insts[0].pc


@dataclass(frozen=True)
class SyntheticProgram:
    """Static program: loop blocks, function blocks, memory streams."""

    profile: BenchmarkProfile
    blocks: Tuple[BasicBlock, ...]
    functions: Tuple[BasicBlock, ...]
    streams: Tuple[MemStream, ...]

    @property
    def static_size(self) -> int:
        """Total static instruction count."""
        return sum(len(b.insts) for b in self.blocks) + sum(
            len(f.insts) for f in self.functions
        )


class _RegisterAllocator:
    """Assigns destinations round-robin and sources by static distance.

    Keeps the history of (class, register) producers in static program
    order; a source at distance *d* reads the register written by the
    d-th most recent producer of the right class, which — once blocks
    loop — yields stable inter- and intra-iteration dependence chains.
    """

    def __init__(self, rng: random.Random, profile: BenchmarkProfile):
        self._rng = rng
        self._profile = profile
        self._next_rot = {RegClass.INT: 0, RegClass.FP: 0}
        self._history = {RegClass.INT: [], RegClass.FP: []}

    def alloc_dest(self, cls: RegClass) -> Reg:
        """Allocate the next rotating destination register of ``cls``."""
        idx = self._next_rot[cls]
        self._next_rot[cls] = (idx + 1) % _NUM_ROT
        reg = int_reg(idx) if cls is RegClass.INT else fp_reg(idx)
        history = self._history[cls]
        history.append(reg)
        if len(history) > 4 * _NUM_ROT:
            del history[0]
        return reg

    def pick_src(self, cls: RegClass) -> Reg:
        """Pick a source register of ``cls`` per the profile's dep model."""
        prof = self._profile
        history = self._history[cls]
        random = self._rng.random
        if not history or random() < prof.far_src_frac:
            index = self._rng.choice(_FAR_REGS)
            return (
                int_reg(index) if cls is RegClass.INT else fp_reg(index)
            )
        # distance ~ 1 + Geometric(dep_geo_p): 1 is the latest producer.
        geo_p = prof.dep_geo_p
        longest = len(history)
        distance = 1
        while random() > geo_p and distance < longest:
            distance += 1
        return history[-distance]


def _build_streams(
    profile: BenchmarkProfile, rng: random.Random
) -> List[MemStream]:
    """Lay out the benchmark's memory streams in the data region."""
    streams: List[MemStream] = []
    ws_bytes = profile.working_set_kb * 1024
    cursor = DATA_BASE
    n_seq = max(1, round(6 * profile.seq_stream_frac))
    n_rand = max(1, 6 - n_seq)
    # The bulk of the working set streams sequentially (prefetchable);
    # random references scatter over per-stream hot regions whose size
    # is the profile's rand_hot_kb knob.
    seq_size = max(4096, ws_bytes // max(1, n_seq))
    rand_size = max(4096, profile.rand_hot_kb * 1024)
    for _ in range(n_seq):
        stride = rng.choice((4, 8, 8, 16))
        streams.append(
            MemStream(StreamKind.SEQ, base=cursor, size=seq_size,
                      stride=stride)
        )
        cursor += seq_size
    for _ in range(n_rand):
        streams.append(
            MemStream(StreamKind.RAND, base=cursor, size=rand_size)
        )
        cursor += rand_size
    # A small hot "stack" region shared by every benchmark: spills/refills
    # give store-to-load forwarding and order-violation opportunities.
    streams.append(MemStream(StreamKind.STACK, base=cursor, size=1024))
    return streams


def _opclass_weights(mix: Mix) -> Tuple[Tuple[OpClass, float], ...]:
    """The non-branch op classes and their weights in a normalised mix."""
    return (
        (OpClass.INT_ALU, mix.int_alu),
        (OpClass.INT_MUL, mix.int_mul),
        (OpClass.INT_DIV, mix.int_div),
        (OpClass.FP_ADD, mix.fp_add),
        (OpClass.FP_MUL, mix.fp_mul),
        (OpClass.FP_DIV, mix.fp_div),
        (OpClass.LOAD, mix.load),
        (OpClass.STORE, mix.store),
    )


def _sample_opclass(
    weights: Tuple[Tuple[OpClass, float], ...], total: float,
    rng: random.Random,
) -> OpClass:
    """Sample a non-branch op class from :func:`_opclass_weights`, whose
    weights sum to ``total``."""
    point = rng.random() * total
    acc = 0.0
    for op, weight in weights:
        acc += weight
        if point < acc:
            return op
    return OpClass.INT_ALU


#: Op-class groups :func:`_make_body_inst` branches on.
_MEM_OPS = frozenset({OpClass.LOAD, OpClass.STORE})
_FP_OPS = frozenset({OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV})


def _make_body_inst(
    pc: int,
    op: OpClass,
    alloc: _RegisterAllocator,
    profile: BenchmarkProfile,
    rng: random.Random,
    stream_ids: _StreamIds,
) -> StaticInst:
    """Build one non-branch static instruction at ``pc``."""
    if op in _MEM_OPS:
        is_fp_data = rng.random() < profile.fp_mem_frac
        data_cls = RegClass.FP if is_fp_data else RegClass.INT
        if op is OpClass.LOAD:
            op = OpClass.FP_LOAD if is_fp_data else OpClass.LOAD
        else:
            op = OpClass.FP_STORE if is_fp_data else OpClass.STORE
        stream_id = _pick_stream(profile, rng, stream_ids)
        # Most addresses are computed (pointers, induction variables);
        # the rest are frame/global accesses off the base register.
        if rng.random() < 0.75:
            addr_src = alloc.pick_src(RegClass.INT)
        else:
            addr_src = int_reg(_BASE_REG)
        if op is OpClass.LOAD or op is OpClass.FP_LOAD:
            dest = alloc.alloc_dest(data_cls)
            return StaticInst(pc=pc, op=op, dest=dest, srcs=(addr_src,),
                              stream_id=stream_id)
        data_src = alloc.pick_src(data_cls)
        return StaticInst(pc=pc, op=op, srcs=(addr_src, data_src),
                          stream_id=stream_id)
    if op in _FP_OPS:
        dest = alloc.alloc_dest(RegClass.FP)
        srcs = (alloc.pick_src(RegClass.FP), alloc.pick_src(RegClass.FP))
        return StaticInst(pc=pc, op=op, dest=dest, srcs=srcs)
    # Rarely, an ALU op refreshes a long-lived ("far") register so those
    # values are genuinely long-lived rather than permanently ready.
    if rng.random() < 0.03:
        dest = int_reg(rng.choice(_FAR_REGS))
    else:
        dest = alloc.alloc_dest(RegClass.INT)
    # A share of integer ops are plain register moves — the instructions
    # a RENO-style rename optimizer can eliminate (paper Section VII-C).
    if op is OpClass.INT_ALU and rng.random() < 0.08:
        return StaticInst(pc=pc, op=OpClass.MOV, dest=dest,
                          srcs=(alloc.pick_src(RegClass.INT),))
    if rng.random() < 0.65:
        srcs = (alloc.pick_src(RegClass.INT), alloc.pick_src(RegClass.INT))
    else:
        srcs = (alloc.pick_src(RegClass.INT),)
    return StaticInst(pc=pc, op=op, dest=dest, srcs=srcs)


@dataclass(frozen=True)
class _StreamIds:
    """Stream indices by kind, for :func:`_pick_stream`."""

    seq: Tuple[int, ...]
    rand: Tuple[int, ...]
    stack: int

    @classmethod
    def of(cls, streams: Sequence[MemStream]) -> "_StreamIds":
        return cls(
            seq=tuple(i for i, s in enumerate(streams)
                      if s.kind is StreamKind.SEQ),
            rand=tuple(i for i, s in enumerate(streams)
                       if s.kind is StreamKind.RAND),
            stack=len(streams) - 1,  # the stack stream is last
        )


def _pick_stream(
    profile: BenchmarkProfile,
    rng: random.Random,
    ids: _StreamIds,
) -> int:
    """Choose a stream index: seq vs rand by profile, ~10% stack."""
    if rng.random() < 0.10:
        return ids.stack
    if rng.random() < profile.seq_stream_frac and ids.seq:
        return rng.choice(ids.seq)
    if ids.rand:
        return rng.choice(ids.rand)
    return rng.choice(ids.seq)


def _block_length(profile: BenchmarkProfile, rng: random.Random) -> int:
    """Sample a block body length (excluding the terminating branch)."""
    mean = profile.block_len_mean
    length = round(rng.gauss(mean, mean / 4.0))
    return max(3, min(int(length), 40))


def build_program(
    profile: BenchmarkProfile, seed: int = 0
) -> SyntheticProgram:
    """Synthesise the static program for ``profile``.

    The same (profile, seed) pair always yields an identical program, so a
    benchmark's trace is reproducible across models and processes.
    """
    rng = random.Random(f"{profile.name}:{seed}")
    alloc = _RegisterAllocator(rng, profile)
    streams = _build_streams(profile, rng)

    mix = profile.mix.normalised()
    # Per-instruction sampling constants, computed once per program.
    weights = _opclass_weights(mix)
    total_weight = sum(w for _, w in weights)
    stream_ids = _StreamIds.of(streams)

    n_functions = max(1, profile.num_blocks // 16)
    pc = CODE_BASE
    blocks: List[BasicBlock] = []
    functions: List[BasicBlock] = []

    def build_block(
        index: int, terminator: BranchKind, callee: int = -1
    ) -> BasicBlock:
        nonlocal pc
        insts: List[StaticInst] = []
        length = _block_length(profile, rng)
        # Branch budget: the block executes length body slots plus one
        # terminating branch per iteration; hammocks make up whatever the
        # mix asks for beyond that one terminator.
        want_branches = mix.branch * (length + 1)
        hammock_prob = max(0.0, want_branches - 1.0) / length
        for pos in range(length):
            if rng.random() < hammock_prob and pos < length - 1:
                is_random = rng.random() < (
                    profile.branch_random_frac / max(mix.branch, 1e-9)
                )
                skip = rng.randint(1, min(3, length - 1 - pos))
                behavior = BranchBehavior(
                    kind=(BranchKind.RANDOM if is_random
                          else BranchKind.HAMMOCK),
                    taken_prob=(0.5 if is_random
                                else rng.choice((0.02, 0.05, 0.95, 0.98))),
                    skip=skip,
                )
                srcs = (alloc.pick_src(RegClass.INT),)
                insts.append(
                    StaticInst(pc=pc, op=OpClass.BR_COND, srcs=srcs,
                               branch=behavior)
                )
            else:
                op = _sample_opclass(weights, total_weight, rng)
                insts.append(_make_body_inst(pc, op, alloc, profile, rng,
                                             stream_ids))
            pc += 4
        # Terminator.
        if terminator is BranchKind.LOOP:
            behavior = BranchBehavior(kind=BranchKind.LOOP)
            srcs = (alloc.pick_src(RegClass.INT),)
            insts.append(
                StaticInst(pc=pc, op=OpClass.BR_COND, srcs=srcs,
                           branch=behavior)
            )
        elif terminator is BranchKind.CALL:
            behavior = BranchBehavior(kind=BranchKind.CALL, callee=callee)
            insts.append(
                StaticInst(pc=pc, op=OpClass.CALL, branch=behavior)
            )
        elif terminator is BranchKind.RET:
            behavior = BranchBehavior(kind=BranchKind.RET)
            insts.append(
                StaticInst(pc=pc, op=OpClass.RET, branch=behavior)
            )
        else:
            behavior = BranchBehavior(kind=BranchKind.UNCOND)
            insts.append(
                StaticInst(pc=pc, op=OpClass.BR_UNCOND, branch=behavior)
            )
        pc += 4
        trip = max(1.5, rng.gauss(profile.loop_trip_mean,
                                  profile.loop_trip_mean / 3.0))
        return BasicBlock(index=index, insts=tuple(insts),
                          loop_trip_mean=trip)

    for i in range(profile.num_blocks):
        # Roughly one block in eight ends with a call instead of a loop.
        if n_functions and i % 8 == 5:
            callee = rng.randrange(n_functions)
            blocks.append(build_block(i, BranchKind.CALL, callee=callee))
        else:
            blocks.append(build_block(i, BranchKind.LOOP))
    for i in range(n_functions):
        functions.append(build_block(i, BranchKind.RET))

    return SyntheticProgram(
        profile=profile,
        blocks=tuple(blocks),
        functions=tuple(functions),
        streams=tuple(streams),
    )
