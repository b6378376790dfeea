"""Golden pin of every synthetic program and the head of its trace.

For each benchmark and seed, one sha256 covers:

* every field of every ``StaticInst`` of the program (``decoded``
  included) and each block's index and ``loop_trip_mean``, blocks
  first, then the function blocks;
* every field of every memory stream;
* every slot of the first :data:`TRACE_LENGTH` ``DynInst`` records the
  trace generator emits for that program and seed.

The result goldens pin programs only through the timing of the runs
built on them; this file pins them directly, so a change to how a
program or a trace is built (record types, the order of the RNG draws)
shows here first and by name.  After an intended change, rewrite the
file with::

    PYTHONPATH=src python -m tests.test_workload_golden
"""

import dataclasses
import enum
import hashlib
import json
from pathlib import Path

import pytest

from repro.isa.instruction import DynInst
from repro.isa.registers import Reg
from repro.workloads import ALL_BENCHMARKS, get_profile
from repro.workloads.generator import TraceGenerator
from repro.workloads.program import build_program

GOLDEN = Path(__file__).with_name("workload_golden.json")
SEEDS = (0, 1)
TRACE_LENGTH = 2000


def _canon(value) -> str:
    """A stable text form of one field value."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, Reg):
        return repr(value)
    if isinstance(value, tuple):
        return "(" + ",".join(_canon(item) for item in value) + ")"
    if isinstance(value, list):
        return "[" + ",".join(_canon(item) for item in value) + "]"
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + _canon(
            tuple(getattr(value, f.name) for f in dataclasses.fields(value)))
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(benchmark: str, seed: int) -> str:
    """The sha256 of ``benchmark``'s program and trace head at ``seed``."""
    program = build_program(get_profile(benchmark), seed=seed)
    sha = hashlib.sha256()

    def feed(text: str) -> None:
        sha.update(text.encode())
        sha.update(b"\n")

    for group in (program.blocks, program.functions):
        for block in group:
            feed(f"block {block.index} {block.loop_trip_mean!r}")
            for inst in block.insts:
                feed(_canon(inst))
    for stream in program.streams:
        feed(_canon(stream))
    trace = TraceGenerator(program, seed=seed).generate(TRACE_LENGTH)
    for inst in trace:
        feed(_canon(tuple(getattr(inst, slot) for slot in DynInst.__slots__)))
    return sha.hexdigest()


def _keys():
    return [(bench, seed) for bench in ALL_BENCHMARKS for seed in SEEDS]


def _label(bench: str, seed: int) -> str:
    return f"{bench}/{seed}"


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_benchmark_and_seed():
    assert sorted(_golden()) == sorted(_label(b, s) for b, s in _keys())


@pytest.mark.parametrize("bench,seed", _keys(),
                         ids=[_label(b, s) for b, s in _keys()])
def test_program_and_trace_match_golden(bench, seed):
    assert digest(bench, seed) == _golden()[_label(bench, seed)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {_label(b, s): digest(b, s) for b, s in _keys()}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
