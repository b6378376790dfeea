"""Seeded configuration/workload fuzzer for the validation harness.

Each fuzz case is a deterministic function of ``(seed, index)``: a
benchmark, a trace seed and length, and one jittered configuration per
core family (in-order, out-of-order, FXA, clustered).  All four cores
run the identical trace under full differential + invariant validation
(:mod:`repro.validate.checker`), so a case fails when any model
diverges from the golden oracle or trips a microarchitectural
invariant.

CLI (also reachable as ``fxa-experiments --fuzz N --seed S``)::

    python -m repro.validate.fuzz --n 25 --seed 7
    python -m repro.validate.fuzz --seed 7 --case 13 --max-len 120 -v

``--case`` re-runs one failing case in isolation and ``--max-len``
truncates its trace — together they binary-search a minimal reproducer
(see VALIDATION.md).  ``--report`` writes the full JSON divergence
report (CI uploads it as an artifact on failure).
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.atomicio import replace_json
from repro.core.config import ClusterConfig, CoreConfig, IXUConfig
from repro.core.ooo import SimulationError
from repro.validate.checker import ValidationReport, Violation
from repro.validate.differential import validate_core
from repro.validate.oracle import GoldenOracle
from repro.workloads import ALL_BENCHMARKS
from repro.workloads.generator import generate_trace

_PREDICTORS = ("gshare", "bimodal", "tournament")
_IXU_STAGE_FUS: Tuple[Tuple[int, ...], ...] = (
    (3, 1, 1), (2, 1, 1), (2, 1), (1, 1), (2, 2, 2), (4, 1),
)
_STEERINGS = ("dependence", "roundrobin")


@dataclass(frozen=True)
class FuzzCase:
    """One deterministic fuzz case: a workload plus four configs."""

    index: int
    benchmark: str
    trace_seed: int
    length: int
    configs: Tuple[CoreConfig, ...]

    def describe(self) -> str:
        models = ", ".join(c.name for c in self.configs)
        return (f"case {self.index}: {self.benchmark} "
                f"(trace seed {self.trace_seed}, {self.length} insts) "
                f"on {models}")


@dataclass
class FuzzResult:
    """Outcome of one fuzz sweep."""

    seed: int
    cases: List[FuzzCase] = field(default_factory=list)
    reports: List[ValidationReport] = field(default_factory=list)
    failing_case_indices: List[int] = field(default_factory=list)

    @property
    def failures(self) -> List[ValidationReport]:
        return [r for r in self.reports if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "cases": len(self.cases),
            "ok": self.ok,
            "reports": [r.to_dict() for r in self.reports],
        }


def sample_case(seed: int, index: int,
                max_len: Optional[int] = None) -> FuzzCase:
    """Derive fuzz case ``index`` of sweep ``seed`` (pure function)."""
    rng = random.Random(f"fxa-fuzz:{seed}:{index}")
    benchmark = rng.choice(ALL_BENCHMARKS)
    trace_seed = rng.randrange(1 << 30)
    length = rng.randrange(300, 901)
    if max_len is not None:
        length = min(length, max_len)

    def pipeline_jitter() -> Dict:
        return {
            "pht_entries": rng.choice((256, 1024, 4096)),
            "btb_entries": rng.choice((64, 256, 512)),
            "ras_depth": rng.choice((4, 8, 16)),
            "predictor_kind": rng.choice(_PREDICTORS),
            "fetch_to_rename": rng.randrange(2, 7),
            "decode_redirect_latency": rng.randrange(1, 4),
            "frontend_queue_depth": rng.randrange(4, 25),
        }

    inorder = CoreConfig(
        name=f"fuzz{index}-inorder",
        core_type="inorder",
        fetch_width=rng.randrange(1, 4),
        rename_width=1,
        issue_width=rng.randrange(1, 4),
        commit_width=4,
        iq_entries=1,
        rob_entries=1,
        fu_int=rng.randrange(1, 3),
        fu_mem=rng.randrange(1, 3),
        fu_fp=rng.randrange(1, 3),
        fetch_breaks_on_taken=rng.random() < 0.5,
        **pipeline_jitter(),
    )

    def ooo_kwargs() -> Dict:
        width = rng.randrange(1, 5)
        return {
            "core_type": "ooo",
            "fetch_width": rng.randrange(1, 5),
            "rename_width": width,
            "issue_width": rng.randrange(1, 5),
            "commit_width": rng.randrange(1, 5),
            "iq_entries": rng.randrange(4, 65),
            "rob_entries": rng.randrange(16, 129),
            "int_prf_entries": rng.randrange(40, 129),
            "fp_prf_entries": rng.randrange(40, 97),
            "lq_entries": rng.randrange(4, 33),
            "sq_entries": rng.randrange(4, 33),
            "fu_int": rng.randrange(1, 4),
            "fu_mem": rng.randrange(1, 3),
            "fu_fp": rng.randrange(1, 3),
            "prf_read_ports": rng.randrange(4, 13),
            "move_elimination": rng.random() < 0.5,
            "rename_to_dispatch": rng.randrange(1, 3),
            "dispatch_to_issue": rng.randrange(1, 4),
            **pipeline_jitter(),
        }

    ooo = CoreConfig(name=f"fuzz{index}-ooo", **ooo_kwargs())

    stage_fus = rng.choice(_IXU_STAGE_FUS)
    fxa = CoreConfig(
        name=f"fuzz{index}-fxa",
        ixu=IXUConfig(
            stage_fus=stage_fus,
            bypass_stage_limit=rng.choice(
                (None, 1, 2, len(stage_fus))
            ),
            execute_mem_ops=rng.random() < 0.8,
            execute_branches=rng.random() < 0.8,
        ),
        **ooo_kwargs(),
    )

    clustered = CoreConfig(
        name=f"fuzz{index}-ca",
        clusters=ClusterConfig(
            count=rng.randrange(2, 4),
            issue_width_per_cluster=rng.randrange(1, 3),
            int_fus_per_cluster=rng.randrange(1, 3),
            inter_cluster_delay=rng.randrange(0, 3),
            steering=rng.choice(_STEERINGS),
        ),
        **ooo_kwargs(),
    )

    return FuzzCase(index=index, benchmark=benchmark,
                    trace_seed=trace_seed, length=length,
                    configs=(inorder, ooo, fxa, clustered))


def run_case(case: FuzzCase,
             invariants: bool = True) -> List[ValidationReport]:
    """Validate every config of ``case`` on its shared trace."""
    trace = generate_trace(case.benchmark, case.length, case.trace_seed)
    reference = GoldenOracle().run(trace)
    reports = []
    for config in case.configs:
        try:
            report = validate_core(
                config, trace, invariants=invariants,
                benchmark=case.benchmark, reference=reference,
            )
        except SimulationError as error:
            # A wedged pipeline is a finding, not a fuzzer crash.
            report = ValidationReport(model=config.name,
                                      benchmark=case.benchmark)
            report.violations.append(Violation(
                kind="simulation_error", cycle=-1, seq=None,
                message=str(error),
            ))
        reports.append(report)
    return reports


def fuzz(n: int, seed: int, invariants: bool = True,
         case_index: Optional[int] = None,
         max_len: Optional[int] = None,
         verbose: bool = False) -> FuzzResult:
    """Run ``n`` fuzz cases (or just ``case_index``) for ``seed``."""
    result = FuzzResult(seed=seed)
    indices = ([case_index] if case_index is not None
               else list(range(n)))
    for index in indices:
        case = sample_case(seed, index, max_len=max_len)
        if verbose:
            print(case.describe())
        reports = run_case(case, invariants=invariants)
        result.cases.append(case)
        result.reports.extend(reports)
        if any(not r.ok for r in reports):
            result.failing_case_indices.append(case.index)
        if verbose:
            for report in reports:
                print(f"  {report.summary()}")
    return result


def render_failures(result: FuzzResult) -> str:
    """Human-readable first-divergence report for failing cases."""
    lines = []
    for report in result.failures:
        lines.append(report.describe())
        lines.append("")
    return "\n".join(lines).rstrip()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fuzz the core models against the golden oracle "
                    "and the microarchitectural invariant checkers.",
    )
    parser.add_argument("--n", type=int, default=25,
                        help="Number of fuzz cases (default 25).")
    parser.add_argument("--seed", type=int, default=0,
                        help="Sweep seed (default 0).")
    parser.add_argument("--case", type=int, default=None, metavar="K",
                        help="Run only case K of the sweep "
                             "(failure minimization).")
    parser.add_argument("--max-len", type=int, default=None, metavar="N",
                        help="Cap every case's trace length at N "
                             "(failure minimization).")
    parser.add_argument("--no-invariants", action="store_true",
                        help="Differential checks only (faster; used to "
                             "bisect oracle vs invariant failures).")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="Write the JSON divergence report to PATH.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="Print each case and per-model outcome.")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--n must be >= 1")
    result = fuzz(args.n, args.seed,
                  invariants=not args.no_invariants,
                  case_index=args.case, max_len=args.max_len,
                  verbose=args.verbose)
    if args.report:
        replace_json(args.report, result.to_dict(), indent=2,
                     sort_keys=True)
        print(f"fuzz report written to {args.report}")
    checked = len(result.reports)
    if result.ok:
        print(f"fuzz OK: {len(result.cases)} case(s), {checked} "
              f"validated runs, seed {result.seed} — no divergence, "
              f"no invariant violation")
        return 0
    print(render_failures(result))
    print(f"fuzz FAILED: {len(result.failures)} of {checked} runs "
          f"across {len(result.cases)} case(s), seed {result.seed}")
    failing = result.failing_case_indices
    if failing:
        print(f"re-run one case with: python -m repro.validate.fuzz "
              f"--seed {result.seed} --case {failing[0]} -v")
    return 1


if __name__ == "__main__":
    sys.exit(main())
