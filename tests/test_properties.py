"""Property-based tests (hypothesis) on core data structures/invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.backend import FUPool, IssueQueue, ReorderBuffer
from repro.branch import BTB, GShare
from repro.core import build_core
from repro.isa import DynInst, OpClass, int_reg
from repro.isa.registers import RegClass
from repro.mem import Cache
from repro.rename import Renamer
from repro.validate import validate_core
from repro.workloads import (
    ALL_BENCHMARKS,
    build_program,
    generate_trace,
    get_profile,
)

# ---------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------


@given(
    addrs=st.lists(st.integers(min_value=0, max_value=1 << 20),
                   min_size=1, max_size=300),
    writes=st.lists(st.booleans(), min_size=1, max_size=300),
)
@settings(max_examples=50, deadline=None)
def test_cache_access_installs_line(addrs, writes):
    cache = Cache("T", size_kb=4, ways=2)
    for addr, is_write in zip(addrs, writes):
        cache.access(addr, is_write)
        assert cache.probe(addr)  # just-accessed line must be resident


@given(
    addrs=st.lists(st.integers(min_value=0, max_value=1 << 16),
                   min_size=1, max_size=200),
)
@settings(max_examples=50, deadline=None)
def test_cache_stats_consistent(addrs):
    cache = Cache("T", size_kb=1, ways=1)
    for addr in addrs:
        cache.access(addr, False)
    stats = cache.stats
    assert stats.misses <= stats.accesses
    assert 0.0 <= stats.miss_rate <= 1.0
    assert stats.accesses == len(addrs)


# ---------------------------------------------------------------------
# Branch predictor structures
# ---------------------------------------------------------------------


@given(
    events=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1 << 16),
                  st.booleans()),
        min_size=1, max_size=500,
    )
)
@settings(max_examples=30, deadline=None)
def test_gshare_counters_stay_saturating(events):
    predictor = GShare(256)
    for pc, taken in events:
        _, index = predictor.predict_and_capture(pc * 4, taken)
        predictor.train(index, taken)
    assert all(0 <= v <= 3 for v in predictor._pht)


@given(
    updates=st.lists(
        st.tuples(st.integers(min_value=0, max_value=255),
                  st.integers(min_value=0, max_value=1 << 20)),
        min_size=1, max_size=200,
    )
)
@settings(max_examples=30, deadline=None)
def test_btb_returns_latest_target(updates):
    btb = BTB(entries=64, ways=4)
    latest = {}
    for pc_index, target in updates:
        pc = pc_index * 4
        btb.update(pc, target)
        latest[pc] = target
    # Any hit must return the latest installed target (misses allowed).
    for pc, target in latest.items():
        found = btb.lookup(pc)
        assert found is None or found == target


# ---------------------------------------------------------------------
# Rename
# ---------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_renamer_random_walk_preserves_registers(seed):
    """Random rename/commit/squash sequences never leak or double-free
    physical registers, and squash restores the previous mapping."""
    rng = random.Random(seed)
    renamer = Renamer(int_prf_entries=40, fp_prf_entries=36)
    live = []  # stack of (renamed, logical)
    total = renamer.free_regs(RegClass.INT)
    for step in range(120):
        action = rng.random()
        if action < 0.5 and renamer.free_regs(RegClass.INT) > 0:
            logical = int_reg(rng.randrange(30))
            inst = DynInst(seq=step, pc=4 * step, op=OpClass.INT_ALU,
                           dest=logical, srcs=())
            before = renamer.rat[RegClass.INT].lookup(logical)
            renamed = renamer.rename(inst)
            live.append((renamed, logical, before))
        elif action < 0.75 and live:
            renamed, logical, _ = live.pop(0)
            # Commit oldest: live entries renamed after it remain valid.
            renamer.release(RegClass.INT, renamed.old_dest)
        elif live:
            renamed, logical, before = live.pop()
            renamer.squash(renamed)
            assert renamer.rat[RegClass.INT].lookup(logical) == before
    # Drain: free count must reconcile exactly.
    while live:
        renamed, _, _ = live.pop(0)
        renamer.release(RegClass.INT, renamed.old_dest)
    assert renamer.free_regs(RegClass.INT) == total


# ---------------------------------------------------------------------
# Backend structures
# ---------------------------------------------------------------------


@given(
    ops=st.lists(st.sampled_from([OpClass.INT_ALU, OpClass.INT_MUL,
                                  OpClass.INT_DIV]),
                 min_size=1, max_size=100),
    count=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_fu_pool_never_oversubscribes(ops, count):
    from repro.isa import FUType

    pool = FUPool(FUType.INT, count)
    cycle = 0
    issued_at = {}
    for op in ops:
        while not pool.try_issue(op, cycle):
            cycle += 1
        issued_at[cycle] = issued_at.get(cycle, 0) + 1
        assert issued_at[cycle] <= count
    assert pool.executions == len(ops)


@given(seqs=st.lists(st.integers(min_value=0, max_value=10_000),
                     min_size=1, max_size=64, unique=True))
@settings(max_examples=30, deadline=None)
def test_rob_squash_keeps_order(seqs):
    class E:
        def __init__(self, seq):
            self.seq = seq

    seqs = sorted(seqs)
    rob = ReorderBuffer(128)
    # Rename appends to the ROB's entries in program order.
    rob._entries.extend(E(seq) for seq in seqs)
    boundary = seqs[len(seqs) // 2]
    removed = rob.squash_younger_than(boundary)
    kept = [e.seq for e in rob]
    assert kept == [s for s in seqs if s <= boundary]
    assert [e.seq for e in removed] == sorted(
        [s for s in seqs if s > boundary], reverse=True)


# ---------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------


@given(
    bench=st.sampled_from(ALL_BENCHMARKS),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=20, deadline=None)
def test_trace_control_flow_consistent(bench, seed):
    trace = generate_trace(bench, 400, seed=seed)
    assert len(trace) == 400
    for prev, cur in zip(trace, trace[1:]):
        assert cur.pc == prev.next_pc
        assert cur.seq == prev.seq + 1


@given(bench=st.sampled_from(ALL_BENCHMARKS))
@settings(max_examples=10, deadline=None)
def test_program_pcs_within_code_region(bench):
    program = build_program(get_profile(bench))
    for block in program.blocks + program.functions:
        for inst in block.insts:
            assert inst.pc >= 0x40_0000
            if inst.stream_id >= 0:
                assert inst.stream_id < len(program.streams)


# ---------------------------------------------------------------------
# Whole-core invariant: every instruction commits exactly once.
# ---------------------------------------------------------------------


@given(
    bench=st.sampled_from(("hmmer", "mcf", "gcc", "lbm", "gromacs")),
    model=st.sampled_from(("BIG", "HALF", "LITTLE", "HALF+FX")),
    seed=st.integers(min_value=0, max_value=99),
)
@settings(max_examples=15, deadline=None)
def test_core_commits_every_instruction(bench, model, seed):
    trace = generate_trace(bench, 600, seed=seed)
    stats = build_core(model).run(trace)
    assert stats.committed == 600
    assert stats.cycles > 0
    assert stats.ipc <= 7.0  # the FXA peak (paper Section IV-B1)


# ---------------------------------------------------------------------
# Differential validation: every core family matches the golden oracle.
# ---------------------------------------------------------------------


@given(
    bench=st.sampled_from(("hmmer", "mcf", "lbm", "gcc")),
    model=st.sampled_from(("LITTLE", "BIG", "HALF+FX", "CA")),
    seed=st.integers(min_value=0, max_value=99),
)
@settings(max_examples=12, deadline=None)
def test_core_matches_golden_oracle(bench, model, seed):
    """Every core family (in-order, out-of-order, FXA, clustered)
    commits the trace in program order and reaches the golden oracle's
    final architectural state, with every microarchitectural invariant
    held along the way."""
    trace = generate_trace(bench, 500, seed=seed)
    report = validate_core(model, trace, benchmark=bench)
    assert report.ok, report.describe()
