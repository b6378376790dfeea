"""Run a core model under differential + invariant validation.

These are the entry points the CLI, the fuzzer and the test suite
share: build a :class:`~repro.validate.checker.Validator` for a trace,
attach it to a freshly-built core, run, and return the
:class:`~repro.validate.checker.ValidationReport`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.core.config import CoreConfig
from repro.core.presets import KNOWN_MODELS, build_core, model_config
from repro.isa.instruction import DynInst
from repro.validate.checker import ValidationReport, Validator
from repro.validate.oracle import GoldenOracle, OracleResult
from repro.workloads.generator import generate_trace

#: Default ``--validate`` workload subset: one IXU-friendly integer
#: benchmark, one memory-ordering-heavy one, one FP-heavy one.
VALIDATE_BENCHMARKS: Tuple[str, ...] = ("hmmer", "mcf", "lbm")


def validate_core(spec: Union[str, CoreConfig],
                  trace: Sequence[DynInst],
                  invariants: bool = True,
                  strict: bool = False,
                  max_violations: int = 20,
                  benchmark: str = "",
                  reference: Optional[OracleResult] = None,
                  ) -> ValidationReport:
    """Simulate ``trace`` on one core model under full validation.

    Args:
        spec: Model name (``model_config`` key) or explicit config.
        trace: Measured trace with ``trace[i].seq == i``.
        invariants: Also run the microarchitectural invariant checks.
        strict: Raise on the first violation instead of recording.
        benchmark: Label recorded in the report.
        reference: Optional precomputed oracle result for ``trace``.

    Returns:
        The validation report (``report.ok`` when everything held).
    """
    config = model_config(spec) if isinstance(spec, str) else spec
    validator = Validator(trace, invariants=invariants, strict=strict,
                          max_violations=max_violations,
                          reference=reference)
    core = build_core(config, validator=validator)
    core.run(list(trace))
    if benchmark:
        validator.report.benchmark = benchmark
    return validator.report


def validate_model(model: str, benchmark: str, n: int = 2000,
                   seed: int = 0, **kwargs) -> ValidationReport:
    """Generate a trace and validate ``model`` on it."""
    trace = generate_trace(benchmark, n, seed)
    return validate_core(model, trace, benchmark=benchmark, **kwargs)


def validate_all(benchmarks: Optional[Sequence[str]] = None,
                 models: Sequence[str] = KNOWN_MODELS,
                 n: int = 2000, seed: int = 0,
                 invariants: bool = True) -> List[ValidationReport]:
    """Validate every model on every benchmark; one report per pair.

    The oracle runs once per benchmark trace and is shared across the
    models (they all consume the identical instruction stream).
    """
    reports: List[ValidationReport] = []
    for benchmark in benchmarks or VALIDATE_BENCHMARKS:
        trace = generate_trace(benchmark, n, seed)
        reference = GoldenOracle().run(trace)
        for model in models:
            reports.append(validate_core(
                model, trace, invariants=invariants,
                benchmark=benchmark, reference=reference,
            ))
    return reports
