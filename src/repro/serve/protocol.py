"""Wire protocol of the simulation job server: JSON in, JSON out.

A **job spec** names one simulation as data::

    {"model": "HALF+FX",            # any Table-I preset, or "CA"
     "overrides": {"iq_entries": 16,
                   "hierarchy.l2_kb": 256},   # optional, dse vocabulary
     "benchmark": "hmmer",
     "measure": 8000, "warmup": 30000, "seed": 0}

A **batch** wraps a list of them plus submission options::

    {"tenant": "alice",             # quota/priority bucket
     "resume": false,               # clear quarantine records and retry
     "trace_id": "4bf92f35...",     # optional: join an existing trace
     "jobs": [ {...}, {...} ]}

Every spec maps deterministically onto a :class:`CoreConfig` (the
``overrides`` vocabulary is exactly the design-space autotuner's, see
:func:`repro.experiments.dse.apply_overrides`) and from there onto the
same content-address the disk cache keys on — which is what makes the
server's dedup exact: two specs with one digest are one simulation,
and a digest the cache has already seen is served with zero simulation.

When a spec has no overrides its config *is* the preset config, name
included, so server digests are identical to the ones CLI sweeps
produce and the two share cache entries bidirectionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core import MODEL_NAMES, CoreConfig, model_config
from repro.experiments.dse import (
    SpaceError,
    _validate_overrides,
    apply_overrides,
)
from repro.experiments.pool import SimJob
from repro.experiments.runner import DEFAULT_MEASURE, DEFAULT_WARMUP
from repro.workloads import ALL_BENCHMARKS

#: Models a job spec may name (the CLI's observed-model list).
SERVE_MODELS: Tuple[str, ...] = MODEL_NAMES + ("CA",)

_JOB_KEYS = frozenset(
    {"model", "overrides", "benchmark", "measure", "warmup", "seed"})
_BATCH_KEYS = frozenset({"tenant", "resume", "jobs", "trace_id"})


class ProtocolError(ValueError):
    """A malformed request; the server answers it with HTTP 400."""


@dataclass(frozen=True)
class JobSpec:
    """One validated simulation request."""

    benchmark: str
    model: str = "HALF+FX"
    overrides: Tuple[Tuple[str, object], ...] = ()
    measure: int = DEFAULT_MEASURE
    warmup: int = DEFAULT_WARMUP
    seed: int = 0

    def config(self) -> CoreConfig:
        """The :class:`CoreConfig` this spec addresses.

        Without overrides this is the preset itself (preset name
        included), so the fingerprint matches what a CLI sweep of the
        same model produces and cache entries are shared both ways.
        """
        base = model_config(self.model)
        if not self.overrides:
            return base
        return apply_overrides(base, dict(self.overrides),
                               f"serve/{self.model}")

    def sim_job(self) -> SimJob:
        """The job this spec names; its ``digest`` is the content
        address the disk cache keys it on."""
        return SimJob(config=self.config(), benchmark=self.benchmark,
                      measure=self.measure, warmup=self.warmup,
                      seed=self.seed)

    def describe(self) -> str:
        return (f"{self.model}/{self.benchmark}"
                f"(measure={self.measure}, warmup={self.warmup},"
                f" seed={self.seed})")

    def to_dict(self) -> Dict:
        return {
            "model": self.model,
            "overrides": dict(self.overrides),
            "benchmark": self.benchmark,
            "measure": self.measure,
            "warmup": self.warmup,
            "seed": self.seed,
        }


@dataclass
class BatchSpec:
    """One validated batch submission."""

    jobs: List[JobSpec]
    tenant: str = "default"
    resume: bool = False
    trace_id: Optional[str] = None

    def to_dict(self) -> Dict:
        data = {"tenant": self.tenant, "resume": self.resume,
                "jobs": [job.to_dict() for job in self.jobs]}
        if self.trace_id:
            data["trace_id"] = self.trace_id
        return data


def _int_field(data: Mapping, key: str, default: int, minimum: int) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{key!r} must be an integer, got {value!r}")
    if value < minimum:
        raise ProtocolError(f"{key!r} must be >= {minimum}, got {value}")
    return value


def parse_job(data: object) -> JobSpec:
    """Validate one job-spec object; raises :class:`ProtocolError`."""
    if not isinstance(data, Mapping):
        raise ProtocolError(f"job spec must be an object, got {data!r}")
    unknown = set(data) - _JOB_KEYS
    if unknown:
        raise ProtocolError(
            f"unknown job key(s) {sorted(unknown)}; known: "
            f"{sorted(_JOB_KEYS)}")
    benchmark = data.get("benchmark")
    if benchmark not in ALL_BENCHMARKS:
        raise ProtocolError(
            f"unknown benchmark {benchmark!r}; known: "
            f"{sorted(ALL_BENCHMARKS)}")
    model = data.get("model", "HALF+FX")
    if model not in SERVE_MODELS:
        raise ProtocolError(
            f"unknown model {model!r}; known: {sorted(SERVE_MODELS)}")
    overrides = data.get("overrides") or {}
    try:
        _validate_overrides(overrides, "overrides")
    except SpaceError as error:
        raise ProtocolError(str(error)) from None
    spec = JobSpec(
        benchmark=benchmark,
        model=model,
        overrides=tuple(sorted(overrides.items())),
        measure=_int_field(data, "measure", DEFAULT_MEASURE, 1),
        warmup=_int_field(data, "warmup", DEFAULT_WARMUP, 0),
        seed=_int_field(data, "seed", 0, 0),
    )
    try:
        spec.config()  # surface invalid override combinations now
    except SpaceError as error:
        raise ProtocolError(str(error)) from None
    return spec


def parse_batch(data: object, max_jobs: Optional[int] = None) -> BatchSpec:
    """Validate a batch submission (or a bare job spec, promoted to a
    one-job batch); raises :class:`ProtocolError`."""
    if not isinstance(data, Mapping):
        raise ProtocolError(f"request body must be an object, got "
                            f"{data!r}")
    if "jobs" not in data:
        return BatchSpec(jobs=[parse_job(data)])
    unknown = set(data) - _BATCH_KEYS
    if unknown:
        raise ProtocolError(
            f"unknown batch key(s) {sorted(unknown)}; known: "
            f"{sorted(_BATCH_KEYS)}")
    jobs = data["jobs"]
    if not isinstance(jobs, list) or not jobs:
        raise ProtocolError("'jobs' must be a non-empty array")
    if max_jobs is not None and len(jobs) > max_jobs:
        raise ProtocolError(
            f"batch of {len(jobs)} exceeds the {max_jobs}-job limit")
    tenant = data.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError(f"'tenant' must be a non-empty string, "
                            f"got {tenant!r}")
    resume = data.get("resume", False)
    if not isinstance(resume, bool):
        raise ProtocolError(f"'resume' must be a boolean, got {resume!r}")
    trace_id = data.get("trace_id")
    if trace_id is not None:
        from repro.serve.telemetry import TRACE_ID_RE

        if (not isinstance(trace_id, str)
                or TRACE_ID_RE.match(trace_id) is None):
            raise ProtocolError(
                f"'trace_id' must be 8-64 lowercase hex characters, "
                f"got {trace_id!r}")
    return BatchSpec(jobs=[parse_job(entry) for entry in jobs],
                     tenant=tenant, resume=resume, trace_id=trace_id)


__all__ = [
    "SERVE_MODELS",
    "ProtocolError",
    "JobSpec",
    "BatchSpec",
    "parse_job",
    "parse_batch",
]
