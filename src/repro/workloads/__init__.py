"""Synthetic SPEC CPU2006-like workloads.

The paper evaluates all 29 SPEC CPU2006 programs (ref inputs, 100 M
instructions after a 4 G skip) on Alpha binaries.  SPEC binaries and traces
cannot be redistributed, so this package substitutes seeded synthetic
workloads: each benchmark is described by a :class:`BenchmarkProfile`
(instruction mix, dependence-distance distribution, branch predictability,
memory working set and access patterns), from which a block-structured
static program is synthesised and a dynamic trace generated.  The profiles
are calibrated so the *relative* behaviours the paper leans on are present
(libquantum/gromacs are >80 % INT-operation streams, mcf is memory-bound,
FP programs average ≈31 % FP arithmetic, ...).
"""

from repro.workloads.profiles import (
    BenchmarkProfile,
    Mix,
    get_profile,
    list_benchmarks,
    INT_BENCHMARKS,
    FP_BENCHMARKS,
    ALL_BENCHMARKS,
)
from repro.workloads.program import (
    BasicBlock,
    BranchBehavior,
    BranchKind,
    MemStream,
    StaticInst,
    StreamKind,
    SyntheticProgram,
    build_program,
)
from repro.workloads.generator import (
    TraceGenerator,
    generate_trace,
    trace_mix,
)
from repro.workloads.io import (
    TraceFormatError,
    dumps_trace,
    load_trace,
    loads_trace,
    save_trace,
)

__all__ = [
    "BenchmarkProfile",
    "Mix",
    "get_profile",
    "list_benchmarks",
    "INT_BENCHMARKS",
    "FP_BENCHMARKS",
    "ALL_BENCHMARKS",
    "BasicBlock",
    "BranchBehavior",
    "BranchKind",
    "MemStream",
    "StaticInst",
    "StreamKind",
    "SyntheticProgram",
    "build_program",
    "TraceGenerator",
    "generate_trace",
    "trace_mix",
    "TraceFormatError",
    "dumps_trace",
    "load_trace",
    "loads_trace",
    "save_trace",
]
