"""Differential validation harness (golden oracle + invariants + fuzz).

Three layers, documented in VALIDATION.md:

* :mod:`repro.validate.oracle` — the golden-execution oracle: a
  program-order functional executor defining the canonical
  architectural semantics of a trace.
* :mod:`repro.validate.checker` — the :class:`Validator` a core carries
  (``build_core(config, validator=...)``): per-commit differential
  checks against the oracle plus per-cycle microarchitectural
  invariant checks, behind the same ``is None`` guard as
  :mod:`repro.obs`.
* :mod:`repro.validate.fuzz` — the seeded configuration/workload
  fuzzer (``python -m repro.validate.fuzz`` or
  ``fxa-experiments --fuzz N --seed S``).
"""

from repro.validate.checker import (
    ValidationError,
    ValidationReport,
    Validator,
    Violation,
)
from repro.validate.differential import (
    VALIDATE_BENCHMARKS,
    validate_all,
    validate_core,
    validate_model,
)
from repro.validate.oracle import (
    CommitRecord,
    GoldenOracle,
    OracleResult,
    execute_trace,
    initial_mem_value,
    initial_reg_value,
    mix64,
)

__all__ = [
    "CommitRecord",
    "GoldenOracle",
    "OracleResult",
    "VALIDATE_BENCHMARKS",
    "ValidationError",
    "ValidationReport",
    "Validator",
    "Violation",
    "execute_trace",
    "initial_mem_value",
    "initial_reg_value",
    "mix64",
    "validate_all",
    "validate_core",
    "validate_model",
]
