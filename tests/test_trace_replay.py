"""Replaying a trace leaves it as it was generated.

``DynInst`` is a plain slotted class, not a frozen one, and every model
simulating an interval replays the one measured trace the trace memo
holds; so no core may write to a trace record.
"""

import pytest

from repro.core import model_config
from repro.experiments import runner
from repro.isa import DynInst
from repro.obs import Observability, TimelineCollector, TopDownCollector
from repro.workloads import TraceGenerator, build_program, get_profile

MODELS = ("LITTLE", "BIG", "BIG+FX", "HALF", "HALF+FX", "CA")
MEASURE = 1500
WARMUP = 3000


def _fields(trace):
    """Every slot of every record, decoded fields included."""
    return [tuple(getattr(inst, name) for name in DynInst.__slots__)
            for inst in trace]


def _fresh_trace(bench):
    generator = TraceGenerator(build_program(get_profile(bench)))
    generator.generate(WARMUP)
    generator.seq = 0
    return generator.generate(MEASURE)


@pytest.mark.parametrize("bench", ("mcf", "gcc"))
def test_every_model_leaves_the_memoised_trace_unchanged(monkeypatch,
                                                         bench):
    monkeypatch.setattr(runner, "_TRACE_MEMO", {})
    entry = runner.interval(bench, MEASURE, WARMUP)
    records = list(entry.trace)
    for model in MODELS:
        runner.simulate(model_config(model), bench, MEASURE, WARMUP)
        obs = Observability(timeline=TimelineCollector(interval=500),
                            topdown=TopDownCollector())
        runner.simulate(model_config(model), bench, MEASURE, WARMUP,
                        obs=obs)
    assert runner.interval(bench, MEASURE, WARMUP) is entry
    assert all(a is b for a, b in zip(entry.trace, records))
    assert len(entry.trace) == len(records) == MEASURE
    assert _fields(entry.trace) == _fields(_fresh_trace(bench))


def test_generated_records_match_the_checked_constructor():
    """The generator fills the slots from the decoded static
    instruction; the keyword constructor checks and decodes itself."""
    trace = _fresh_trace("gcc")
    assert [inst.seq for inst in trace] == list(range(MEASURE))
    rebuilt = [DynInst(seq=i.seq, pc=i.pc, op=i.op, dest=i.dest,
                       srcs=i.srcs, mem_addr=i.mem_addr,
                       mem_size=i.mem_size, taken=i.taken,
                       target=i.target) for i in trace]
    assert _fields(rebuilt) == _fields(trace)
    assert rebuilt == trace
    assert [hash(i) for i in rebuilt] == [hash(i) for i in trace]
    assert [repr(i) for i in rebuilt] == [repr(i) for i in trace]
