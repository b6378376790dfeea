"""Design-space autotuner: seeded sampling, successive halving, Pareto.

The paper's sensitivity studies (Figures 10-13) sample a handful of
design points per axis.  This module walks a *declarative* parameter
space — IXU stage/FU shapes, IQ/ROB/LSQ/PRF sizes, bypass distance,
cluster shapes, cache geometry — over thousands of configs and reports
the exact Pareto frontier over (IPC, energy/instruction, area proxy).

The walk is budgeted with **successive halving**: every sampled config
is screened at a short measured interval, survivors are promoted rung
by rung to geometrically larger budgets (``x eta`` per rung), and only
the final rung runs at the full ``--budget``.  Promotion is
multi-objective: configs are ordered by Pareto rank (then an IPC-per-
energy tiebreak, then sample order), and a rung always promotes its
entire current Pareto front — so the frontier can never be pruned by a
tiebreak — but never more than ``max(ceil(n / eta), |front|)`` configs.

Everything rides the existing harness: jobs are scheduled on the
slot-based fault-tolerant pool (``--jobs``/``--retries``/``--timeout``,
crash quarantine, ``--resume``), results dedupe through the
content-addressed disk cache (a re-run with a warm cache is
bit-identical and near-instant), per-rung records land in the run
manifest (``--manifest``) and the Perfetto timeline (``--timeline``),
and two sweeps' manifests diff with ``repro-exp diff``.

Invariants (the gauntlet ``verify_payload`` checks, and CI asserts on
the emitted JSON):

* the final frontier is the exact Pareto set of the final rung — no
  member is dominated, every non-member is dominated by a member;
* every config pruned at a rung is strictly dominated, on that rung's
  own measurements, by a config promoted from that rung (the
  "dominance chain" down to the frontier);
* no rung promotes more than ``max(ceil(n / eta), |rung front|)``
  configs, and every rung's promoted set contains its Pareto front;
* the frontier JSON is a pure function of (space, samples, budget,
  rungs, eta, benchmarks, seed) — ``--jobs N``, cache state and resume
  history never change a byte of it.

CLI (also reachable as ``python -m repro.experiments.dse``)::

    repro-exp dse --space paper --samples 216 --budget 4000 \\
        --rungs 3 --eta 3 --jobs 4 --out frontier.json --chart
    repro-exp dse --space myspace.json --benchmarks hmmer mcf
    repro-exp dse --verify frontier.json       # exit 4 on violation
    repro-exp dse --list-spaces

Space files are JSON::

    {"name": "custom", "base": "BIG",
     "axes": [{"name": "iq_entries", "values": [8, 16, 32, 64]},
              {"name": "ixu", "values": [null,
                  {"stage_fus": [3, 1, 1], "bypass_stage_limit": 2}]},
              {"name": "hierarchy.l2_kb", "values": [256, 512]},
              {"name": "lsq", "values": [
                  {"lq_entries": 16, "sq_entries": 16},
                  {"lq_entries": 32, "sq_entries": 32}]}],
     "seeds": [{"name": "ca-2x2", "overrides": {"clusters": {
         "count": 2, "issue_width_per_cluster": 2}}}]}

An axis value that is an object merges all its overrides at once (for
parameters that only move together); scalar values override the field
named by the axis.  ``seeds`` are named design points that are always
included in the sample — the shipped presets seed CG-OoO-style
block/cluster shapes and FXA variants so the frontier directly extends
the paper's related-work comparison.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.atomicio import replace_json, replacing
from repro.core import ClusterConfig, CoreConfig, IXUConfig
from repro.mem.hierarchy import HierarchyConfig
from repro.core.presets import model_config
from repro.energy import AreaModel
from repro.experiments import runner
from repro.experiments.pareto import (
    dominated_by_some,
    pareto_front_indices,
    pareto_ranks,
)
from repro.experiments.pool import SimJob
from repro.experiments.sweepflags import (
    add_sweep_args,
    applied,
    float_at_least,
    int_at_least,
    print_cache_line,
)
from repro.experiments.textchart import scatter_chart
from repro.workloads import ALL_BENCHMARKS

#: Schema version of the frontier JSON payload.
PAYLOAD_VERSION = 1
#: Exit code of ``--verify`` when an invariant does not hold.
EXIT_INVARIANT = 4
#: Benchmarks measured when ``--benchmarks`` is not given: one
#: high-ILP, one memory-bound, one streaming workload (the smoke triad
#: the figure modules use for quick runs).
DEFAULT_BENCHMARKS: Tuple[str, ...] = ("hmmer", "mcf", "lbm")
#: Objective directions, in vector order.
OBJECTIVES: Tuple[Tuple[str, str], ...] = (
    ("ipc", "max"),
    ("energy_per_instruction", "min"),
    ("area_mm2", "min"),
)


class SpaceError(ValueError):
    """A malformed parameter space (unknown field, bad value, ...)."""


# ----------------------------------------------------------------------
# Parameter spaces
# ----------------------------------------------------------------------

#: Top-level override keys that take whole sub-config objects.
_NESTED_KEYS = ("ixu", "clusters")
_CONFIG_FIELDS = frozenset(
    f.name for f in dataclasses.fields(CoreConfig)
) - {"name", "hierarchy"}
_HIERARCHY_FIELDS = frozenset(
    f.name for f in dataclasses.fields(HierarchyConfig))
_IXU_FIELDS = frozenset(f.name for f in dataclasses.fields(IXUConfig))
_CLUSTER_FIELDS = frozenset(
    f.name for f in dataclasses.fields(ClusterConfig))


def _validate_override_key(key: str, value: object) -> None:
    """Raise :class:`SpaceError` unless ``key``/``value`` name a real
    config knob; the error spells out what is known."""
    if key == "ixu":
        if value is not None:
            if not isinstance(value, Mapping):
                raise SpaceError("'ixu' takes null or an object of "
                                 f"IXUConfig fields, got {value!r}")
            unknown = set(value) - _IXU_FIELDS
            if unknown:
                raise SpaceError(
                    f"unknown IXU field(s) {sorted(unknown)}; known: "
                    f"{sorted(_IXU_FIELDS)}")
        return
    if key == "clusters":
        if value is not None:
            if not isinstance(value, Mapping):
                raise SpaceError("'clusters' takes null or an object of"
                                 f" ClusterConfig fields, got {value!r}")
            unknown = set(value) - _CLUSTER_FIELDS
            if unknown:
                raise SpaceError(
                    f"unknown cluster field(s) {sorted(unknown)}; "
                    f"known: {sorted(_CLUSTER_FIELDS)}")
        return
    if key.startswith("hierarchy."):
        fieldname = key.split(".", 1)[1]
        if fieldname not in _HIERARCHY_FIELDS:
            raise SpaceError(
                f"unknown hierarchy field {fieldname!r}; known: "
                f"{sorted(_HIERARCHY_FIELDS)}")
        return
    if key not in _CONFIG_FIELDS:
        raise SpaceError(
            f"unknown config field {key!r}; known: "
            f"{sorted(_CONFIG_FIELDS | set(_NESTED_KEYS))} plus "
            f"'hierarchy.<field>'")


def _validate_overrides(overrides: Mapping, where: str) -> None:
    if not isinstance(overrides, Mapping):
        raise SpaceError(f"{where}: overrides must be an object, got "
                         f"{overrides!r}")
    for key, value in overrides.items():
        try:
            _validate_override_key(key, value)
        except SpaceError as error:
            raise SpaceError(f"{where}: {error}") from None


def _names_config_field(name: str) -> bool:
    """True when an axis name addresses a real config knob directly."""
    return (name in _CONFIG_FIELDS or name in _NESTED_KEYS
            or name.startswith("hierarchy."))


@dataclass(frozen=True)
class Axis:
    """One sweep dimension.

    When ``name`` addresses a config field (including ``ixu``,
    ``clusters`` and ``hierarchy.<field>``), each value — scalar or
    object — is that field's value.  Otherwise ``name`` is only a
    label and every value must be an object merging several overrides
    at once (for parameters that only move together, like LQ/SQ size).
    """

    name: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise SpaceError(f"axis {self.name!r} has no values")
        for value in self.values:
            if _names_config_field(self.name):
                _validate_override_key(self.name, value)
            elif isinstance(value, Mapping):
                _validate_overrides(value, f"axis {self.name!r}")
            else:
                # A scalar under a label-only axis: the name itself is
                # the problem; surface the unknown-field error.
                _validate_override_key(self.name, value)

    def overrides_for(self, value: object) -> Dict:
        if _names_config_field(self.name):
            return {self.name: value}
        return dict(value)


@dataclass(frozen=True)
class SeedPoint:
    """A named design point always included in the sample."""

    name: str
    overrides: Dict

    def __post_init__(self) -> None:
        _validate_overrides(self.overrides, f"seed {self.name!r}")


@dataclass(frozen=True)
class DesignPoint:
    """One sampled configuration (a row of the sweep)."""

    index: int
    name: str
    overrides: Dict


@dataclass
class ParamSpace:
    """A declarative design space: a grid of axes plus seeded points."""

    name: str
    axes: List[Axis] = field(default_factory=list)
    seeds: List[SeedPoint] = field(default_factory=list)
    base: str = "BIG"
    description: str = ""

    def grid_size(self) -> int:
        """Number of grid points (0 when the space has no axes)."""
        if not self.axes:
            return 0
        size = 1
        for axis in self.axes:
            size *= len(axis.values)
        return size

    def size(self) -> int:
        """Total candidate design points (grid plus seeds)."""
        return self.grid_size() + len(self.seeds)

    def _decode(self, index: int) -> Dict:
        """Overrides of grid point ``index`` (mixed-radix decode)."""
        overrides: Dict = {}
        for axis in self.axes:
            index, offset = divmod(index, len(axis.values))
            overrides.update(axis.overrides_for(axis.values[offset]))
        return overrides

    def sample(self, samples: int, seed: int) -> List[DesignPoint]:
        """Deterministically draw ``samples`` design points.

        Seeded points always ride along; the remaining budget is drawn
        from the grid without replacement with ``random.Random(seed)``.
        Grid point names encode the grid index, so the same grid point
        keeps the same name (and cache identity) whatever the sample
        size.  Duplicate configurations (a seed that collides with a
        grid point, or two axes overriding to the same values) are
        deduplicated, keeping the first occurrence.
        """
        if samples < 1:
            raise SpaceError("samples must be >= 1")
        points: List[DesignPoint] = []
        seen: set = set()

        def _add(name: str, overrides: Dict) -> None:
            key = json.dumps(overrides, sort_keys=True, default=str)
            if key in seen:
                return
            seen.add(key)
            points.append(DesignPoint(len(points), name, overrides))

        for seed_point in self.seeds:
            _add(seed_point.name, dict(seed_point.overrides))
        grid = self.grid_size()
        budget = max(0, samples - len(points))
        if grid and budget:
            if budget >= grid:
                chosen = range(grid)
            else:
                chosen = sorted(
                    random.Random(seed).sample(range(grid), budget))
            width = max(4, len(str(grid - 1)))
            for grid_index in chosen:
                _add(f"g{grid_index:0{width}d}",
                     self._decode(grid_index))
        return points

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "base": self.base,
            "description": self.description,
            "axes": [
                {"name": axis.name, "values": list(axis.values)}
                for axis in self.axes
            ],
            "seeds": [
                {"name": seed.name, "overrides": dict(seed.overrides)}
                for seed in self.seeds
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ParamSpace":
        if not isinstance(data, Mapping):
            raise SpaceError(f"space must be an object, got {data!r}")
        unknown = set(data) - {"name", "base", "description", "axes",
                               "seeds"}
        if unknown:
            raise SpaceError(f"unknown space key(s) {sorted(unknown)}")
        axes = [
            Axis(name=entry["name"], values=tuple(entry["values"]))
            for entry in data.get("axes", [])
        ]
        seeds = [
            SeedPoint(name=entry["name"],
                      overrides=dict(entry["overrides"]))
            for entry in data.get("seeds", [])
        ]
        return cls(name=data.get("name", "custom"), axes=axes,
                   seeds=seeds, base=data.get("base", "BIG"),
                   description=data.get("description", ""))


def apply_overrides(base: CoreConfig, overrides: Mapping,
                    name: str) -> CoreConfig:
    """Instantiate ``base`` with dse-style ``overrides`` applied.

    The override vocabulary (scalar config fields, ``ixu`` /
    ``clusters`` objects, dotted ``hierarchy.<field>`` keys) is shared
    with the job server's config specs; validate first with
    :func:`_validate_overrides` for up-front unknown-field errors.
    Raises :class:`SpaceError` when the overridden values do not form a
    valid configuration.
    """
    scalars: Dict = {}
    hierarchy: Dict = {}
    for key, value in overrides.items():
        if key.startswith("hierarchy."):
            hierarchy[key.split(".", 1)[1]] = value
        elif key == "ixu":
            if value is None:
                scalars["ixu"] = None
            else:
                ixu = dict(value)
                if "stage_fus" in ixu:
                    ixu["stage_fus"] = tuple(ixu["stage_fus"])
                scalars["ixu"] = IXUConfig(**ixu)
        elif key == "clusters":
            scalars["clusters"] = (None if value is None
                                   else ClusterConfig(**value))
        else:
            scalars[key] = value
    try:
        config = base
        if hierarchy:
            config = replace(
                config, hierarchy=replace(config.hierarchy, **hierarchy))
        return replace(config, name=name, **scalars)
    except (TypeError, ValueError) as error:
        raise SpaceError(
            f"overrides do not form a valid config: {error}") from None


def build_config(space: ParamSpace, point: DesignPoint) -> CoreConfig:
    """Instantiate the :class:`CoreConfig` a design point describes."""
    try:
        return apply_overrides(model_config(space.base),
                               point.overrides, f"dse/{point.name}")
    except SpaceError as error:
        raise SpaceError(
            f"design point {point.name!r}: {error}") from None


# ----------------------------------------------------------------------
# Preset spaces
# ----------------------------------------------------------------------

#: The paper's IXU shape as a space override.
_PAPER_IXU = {"stage_fus": [3, 1, 1], "bypass_stage_limit": 2}


def _cgooo_seed_points() -> List[SeedPoint]:
    """~10 named design points from CG-OoO / clustered-architecture
    shapes (PAPERS.md): block-granular narrow clusters, the paper's CA
    comparator, and FXA variants they trade off against."""
    return [
        # The paper's Section VII-A comparator: 2 Alpha-style clusters.
        SeedPoint("ca-2x2", {"clusters": {
            "count": 2, "issue_width_per_cluster": 2,
            "int_fus_per_cluster": 1, "inter_cluster_delay": 1,
            "steering": "dependence"}}),
        SeedPoint("ca-2x2-rr", {"clusters": {
            "count": 2, "issue_width_per_cluster": 2,
            "int_fus_per_cluster": 1, "inter_cluster_delay": 1,
            "steering": "roundrobin"}}),
        # CG-OoO-style block-granular scheduling: many narrow clusters,
        # small global window, pricier cross-cluster communication.
        SeedPoint("cgooo-4x1", {"iq_entries": 16, "clusters": {
            "count": 4, "issue_width_per_cluster": 1,
            "int_fus_per_cluster": 1, "inter_cluster_delay": 2,
            "steering": "dependence"}}),
        SeedPoint("cgooo-6x1", {"iq_entries": 8, "clusters": {
            "count": 6, "issue_width_per_cluster": 1,
            "int_fus_per_cluster": 1, "inter_cluster_delay": 2,
            "steering": "dependence"}}),
        SeedPoint("cgooo-4x2", {"iq_entries": 32, "clusters": {
            "count": 4, "issue_width_per_cluster": 2,
            "int_fus_per_cluster": 2, "inter_cluster_delay": 2,
            "steering": "dependence"}}),
        # FXA family: the paper's HALF+FX/BIG+FX plus depth variants.
        SeedPoint("fxa-half", {"iq_entries": 32, "issue_width": 2,
                               "ixu": dict(_PAPER_IXU)}),
        SeedPoint("fxa-big", {"ixu": dict(_PAPER_IXU)}),
        SeedPoint("fxa-deep", {"iq_entries": 16, "issue_width": 2,
                               "ixu": {"stage_fus": [4, 2, 1, 1],
                                       "bypass_stage_limit": 2}}),
        SeedPoint("fxa-lite", {"iq_entries": 8, "issue_width": 2,
                               "ixu": {"stage_fus": [2, 1],
                                       "bypass_stage_limit": 1}}),
        # Non-FXA corners of the paper's comparison.
        SeedPoint("half", {"iq_entries": 32, "issue_width": 2}),
        SeedPoint("inorder-2w", {
            "core_type": "inorder", "fetch_width": 2,
            "rename_width": 2, "issue_width": 2, "commit_width": 2,
            "fu_int": 2, "fu_mem": 1, "fu_fp": 1,
            "fetch_to_rename": 5, "fetch_breaks_on_taken": True}),
    ]


def _paper_space() -> ParamSpace:
    """The default multi-thousand-point space over the axes the paper's
    sensitivity studies sample (Figures 10-13), seeded with the CG-OoO
    and clustered shapes."""
    return ParamSpace(
        name="paper",
        description="IQ/issue/ROB/LSQ/PRF sizes, IXU shapes and bypass "
                    "distance, L2 geometry; CG-OoO/clustered seeds",
        axes=[
            Axis("iq_entries", (8, 16, 32, 48, 64)),
            Axis("issue_width", (2, 3, 4)),
            Axis("rob_entries", (64, 128, 192)),
            Axis("lsq", (
                {"lq_entries": 16, "sq_entries": 16},
                {"lq_entries": 32, "sq_entries": 32},
            )),
            Axis("prf", (
                {"int_prf_entries": 96, "fp_prf_entries": 64},
                {"int_prf_entries": 128, "fp_prf_entries": 96},
            )),
            Axis("ixu", (
                None,
                dict(_PAPER_IXU),
                {"stage_fus": [2, 1], "bypass_stage_limit": 2},
                {"stage_fus": [4, 1, 1, 1], "bypass_stage_limit": 2},
                {"stage_fus": [3, 1, 1], "bypass_stage_limit": None},
            )),
            Axis("hierarchy.l2_kb", (256, 512, 1024)),
        ],
        seeds=_cgooo_seed_points(),
    )


def _smoke_space() -> ParamSpace:
    """A 10-point space for tests and quick demos."""
    return ParamSpace(
        name="smoke",
        description="tiny IQ/issue/IXU grid plus two seeded shapes",
        axes=[
            Axis("iq_entries", (16, 64)),
            Axis("issue_width", (2, 4)),
            Axis("ixu", (None, dict(_PAPER_IXU))),
        ],
        seeds=[_cgooo_seed_points()[0], _cgooo_seed_points()[5]],
    )


def _cgooo_space() -> ParamSpace:
    """Only the named CG-OoO/clustered/FXA design points."""
    return ParamSpace(
        name="cgooo",
        description="the ~11 seeded CG-OoO / clustered / FXA shapes",
        seeds=_cgooo_seed_points(),
    )


PRESET_SPACES = {
    "paper": _paper_space,
    "smoke": _smoke_space,
    "cgooo": _cgooo_space,
}


def load_space(spec: str) -> ParamSpace:
    """Resolve ``--space``: a preset name or a JSON space file path."""
    factory = PRESET_SPACES.get(spec)
    if factory is not None:
        return factory()
    path = Path(spec)
    if not path.exists():
        raise SpaceError(
            f"{spec!r} is neither a preset "
            f"({', '.join(sorted(PRESET_SPACES))}) nor a space file")
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise SpaceError(f"cannot read space file {spec}: {error}"
                         ) from None
    return ParamSpace.from_dict(data)


# ----------------------------------------------------------------------
# Successive halving
# ----------------------------------------------------------------------


def rung_measure(budget: int, eta: int, rungs: int, rung: int,
                 min_measure: int) -> int:
    """Measured-instruction budget of ``rung`` (the last rung runs the
    full ``budget``; earlier rungs shrink by ``eta`` per step, floored
    at ``min_measure``)."""
    return max(min_measure, round(budget / eta ** (rungs - 1 - rung)))


def promotion_allowance(survivors: int, eta: int) -> int:
    """How many configs the halving budget admits to the next rung."""
    return max(1, math.ceil(survivors / eta))


@dataclass
class ExploreResult:
    """Everything one sweep produced (JSON payload + harness extras)."""

    payload: Dict
    #: Final-rung (SimJob, BenchmarkRun) pairs, for manifest
    #: aggregates.
    final_runs: List = field(default_factory=list)
    #: (name, started_ts, ended_ts) per rung, for the timeline export.
    rung_spans: List[Tuple[str, float, float]] = field(
        default_factory=list)


def _vector(entry: Mapping) -> Tuple[float, float, float]:
    """Maximisation-normalised objective vector of a result entry."""
    return (entry["ipc"], -entry["energy_per_instruction"],
            -entry["area_mm2"])


def explore(
    space: ParamSpace,
    samples: int,
    budget: int,
    rungs: int,
    eta: int,
    benchmarks: Sequence[str],
    seed: int = 0,
    min_measure: int = 200,
    warmup_factor: float = 4.0,
    log=None,
) -> ExploreResult:
    """Run one successive-halving sweep; pure up to the harness state.

    The caller owns harness setup (jobs, caches, fault policy) —
    typically via :func:`cmd`.  ``log`` is an optional callable taking
    one progress line per rung.
    """
    benchmarks = list(benchmarks)
    if not benchmarks:
        raise SpaceError("at least one benchmark is required")
    points = space.sample(samples, seed)
    configs = {p.name: build_config(space, p) for p in points}
    areas = {p.name: AreaModel(configs[p.name]).total() for p in points}
    alive = list(points)
    rung_records: List[Dict] = []
    failed: Dict[str, int] = {}
    spans: List[Tuple[str, float, float]] = []
    final_runs: List = []
    for rung in range(rungs):
        measure = rung_measure(budget, eta, rungs, rung, min_measure)
        warmup = int(round(measure * warmup_factor))
        began = time.time()
        grid = runner.run_grid([configs[p.name] for p in alive],
                               benchmarks, measure, warmup, seed)
        entries: List[Dict] = []
        entry_points: List[DesignPoint] = []
        rung_failed: List[str] = []
        rung_runs: List = []
        for point in alive:
            config = configs[point.name]
            runs = [grid[config, bench] for bench in benchmarks]
            if any(run is None for run in runs):
                failed[point.name] = rung
                rung_failed.append(point.name)
                continue
            ipc = runner.geomean(run.ipc for run in runs)
            epi = runner.geomean(
                run.energy.energy_per_instruction for run in runs)
            entries.append({
                "index": point.index,
                "name": point.name,
                "ipc": ipc,
                "energy_per_instruction": epi,
                "area_mm2": areas[point.name],
                "score": ipc / epi if epi else 0.0,
            })
            entry_points.append(point)
            rung_runs.extend(
                (SimJob(config, bench, measure, warmup, seed), run)
                for bench, run in zip(benchmarks, runs))
        vectors = [_vector(entry) for entry in entries]
        ranks = pareto_ranks(vectors)
        front = set(pareto_front_indices(vectors))
        for position, entry in enumerate(entries):
            entry["rank"] = ranks[position]
        last_rung = rung == rungs - 1
        allowance = promotion_allowance(len(entries), eta)
        if last_rung:
            promoted_positions = sorted(front)
        else:
            keep = min(len(entries), max(allowance, len(front)))
            order = sorted(
                range(len(entries)),
                key=lambda i: (ranks[i], -entries[i]["score"],
                               entries[i]["index"]))
            promoted_positions = sorted(order[:keep])
        promoted_set = set(promoted_positions)
        for position, entry in enumerate(entries):
            entry["promoted"] = position in promoted_set
        rung_records.append({
            "rung": rung,
            "measure": measure,
            "warmup": warmup,
            "configs": len(alive),
            "promotion_allowance": allowance,
            "front_size": len(front),
            "promoted": len(promoted_positions),
            "failed": rung_failed,
            "results": entries,
        })
        spans.append((
            f"dse rung {rung} ({len(alive)} configs @ {measure} insts)",
            began, time.time()))
        if log is not None:
            log(f"rung {rung}: {len(alive)} configs at {measure} insts"
                f" -> {len(promoted_positions)} "
                f"{'frontier' if last_rung else 'promoted'}"
                f" (front {len(front)}, budget {allowance}"
                f"{f', {len(rung_failed)} failed' if rung_failed else ''})")
        alive = [entry_points[i] for i in promoted_positions]
        if last_rung:
            final_runs = rung_runs
        if not alive:
            break
    frontier_names = {p.name for p in alive}
    frontier = [
        dict(entry, overrides=dict(
            next(p for p in points if p.name == entry["name"]).overrides))
        for entry in (rung_records[-1]["results"] if rung_records else [])
        if entry["name"] in frontier_names
    ]
    for entry in frontier:
        entry.pop("promoted", None)
    measured = {
        entry["name"] for record in rung_records
        for entry in record["results"]
    }
    payload = {
        "version": PAYLOAD_VERSION,
        "space": space.to_dict(),
        "base": space.base,
        "samples": len(points),
        "benchmarks": benchmarks,
        "budget": budget,
        "rungs": rungs,
        "eta": eta,
        "min_measure": min_measure,
        "warmup_factor": warmup_factor,
        "seed": seed,
        "objectives": {name: direction
                       for name, direction in OBJECTIVES},
        "points": [
            {"index": p.index, "name": p.name,
             "overrides": dict(p.overrides),
             "area_mm2": areas[p.name]}
            for p in points
        ],
        "rungs_detail": rung_records,
        "frontier": frontier,
        "pruned": sorted(measured - frontier_names),
        "failed": failed,
    }
    return ExploreResult(payload=payload, final_runs=final_runs,
                         rung_spans=spans)


# ----------------------------------------------------------------------
# The invariant gauntlet
# ----------------------------------------------------------------------


def verify_payload(payload: Mapping) -> List[str]:
    """Check every frontier/halving invariant; returns violations.

    An empty list means the payload is internally consistent: exact
    final frontier, per-rung dominance of everything pruned, promotion
    budgets respected, and the rung chain unbroken.  Pure arithmetic on
    the JSON — no simulation — so CI can gate on it cheaply.
    """
    problems: List[str] = []
    records = payload.get("rungs_detail", [])
    eta = payload.get("eta", 0)
    if not records:
        problems.append("no rungs recorded")
        return problems
    for record in records:
        rung = record["rung"]
        entries = record["results"]
        vectors = [_vector(entry) for entry in entries]
        front = set(pareto_front_indices(vectors))
        ranks = pareto_ranks(vectors)
        last = rung == len(records) - 1
        promoted = [i for i, e in enumerate(entries) if e["promoted"]]
        pruned = [i for i, e in enumerate(entries)
                  if not e["promoted"]]
        for position, entry in enumerate(entries):
            if entry.get("rank") != ranks[position]:
                problems.append(
                    f"rung {rung}: {entry['name']} records rank "
                    f"{entry.get('rank')} but recomputes to "
                    f"{ranks[position]}")
        if not front <= set(promoted):
            dropped = sorted(
                entries[i]["name"] for i in front - set(promoted))
            problems.append(
                f"rung {rung}: Pareto-front config(s) {dropped} were "
                f"pruned")
        allowance = promotion_allowance(len(entries), eta)
        if record.get("promotion_allowance") != allowance:
            problems.append(
                f"rung {rung}: recorded allowance "
                f"{record.get('promotion_allowance')} != ceil(n/eta) "
                f"= {allowance}")
        if last:
            if set(promoted) != front:
                problems.append(
                    f"rung {rung} (final): frontier is not the exact "
                    f"Pareto set ({len(promoted)} promoted vs "
                    f"{len(front)} non-dominated)")
        elif len(promoted) > max(allowance, len(front)):
            problems.append(
                f"rung {rung}: promoted {len(promoted)} configs, over "
                f"the max(ceil(n/eta), |front|) = "
                f"{max(allowance, len(front))} budget")
        promoted_vectors = [vectors[i] for i in promoted]
        for i in pruned:
            if not dominated_by_some(vectors[i], promoted_vectors):
                problems.append(
                    f"rung {rung}: pruned config "
                    f"{entries[i]['name']} is not dominated by any "
                    f"promoted config")
    for earlier, later in zip(records, records[1:]):
        expected = {e["name"] for e in earlier["results"]
                    if e["promoted"]}
        got = ({e["name"] for e in later["results"]}
               | set(later.get("failed", [])))
        if expected != got:
            problems.append(
                f"rung {later['rung']}: participants {sorted(got)} != "
                f"rung {earlier['rung']} promotions {sorted(expected)}")
    final_entries = records[-1]["results"]
    final_promoted = {e["name"] for e in final_entries if e["promoted"]}
    frontier = payload.get("frontier", [])
    frontier_names = {entry["name"] for entry in frontier}
    if frontier_names != final_promoted:
        problems.append(
            f"frontier {sorted(frontier_names)} != final-rung "
            f"promotions {sorted(final_promoted)}")
    by_name = {e["name"]: e for e in final_entries}
    for entry in frontier:
        recorded = by_name.get(entry["name"])
        if recorded is None:
            continue
        if _vector(entry) != _vector(recorded):
            problems.append(
                f"frontier entry {entry['name']} metrics diverge from "
                f"its final-rung record")
    measured = {e["name"] for record in records
                for e in record["results"]}
    expected_pruned = sorted(measured - frontier_names)
    if sorted(payload.get("pruned", [])) != expected_pruned:
        problems.append("pruned list does not cover exactly the "
                        "measured-but-not-frontier configs")
    return problems


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _describe_overrides(overrides: Mapping) -> str:
    parts = []
    for key in sorted(overrides):
        value = overrides[key]
        if key == "ixu":
            parts.append(
                "ixu=none" if value is None else
                "ixu=" + "/".join(str(n) for n in value["stage_fus"]))
        elif key == "clusters":
            parts.append(
                "clusters=none" if value is None else
                f"clusters={value.get('count', 2)}x"
                f"{value.get('issue_width_per_cluster', 2)}")
        else:
            parts.append(f"{key.removeprefix('hierarchy.')}={value}")
    return " ".join(parts)


def format_frontier_table(payload: Mapping) -> str:
    """The frontier as an aligned text table (IPC/energy/area + knobs)."""
    frontier = sorted(payload["frontier"], key=lambda e: -e["ipc"])
    lines = [
        f"Pareto frontier: {len(frontier)} of {payload['samples']} "
        f"configs (ipc max, energy/instr min, area min; space "
        f"'{payload['space']['name']}', budget {payload['budget']})",
        f"{'name':14s}{'ipc':>8s}{'pJ/inst':>10s}{'mm2':>8s}  config",
    ]
    for entry in frontier:
        lines.append(
            f"{entry['name']:14s}{entry['ipc']:8.3f}"
            f"{entry['energy_per_instruction']:10.1f}"
            f"{entry['area_mm2']:8.2f}  "
            f"{_describe_overrides(entry['overrides'])}")
    return "\n".join(lines)


def format_charts(payload: Mapping) -> str:
    """Textchart scatters: IPC vs energy/instr and IPC vs area, with
    the frontier overdrawn on the explored cloud."""
    final = payload["rungs_detail"][-1]["results"]
    frontier_names = {e["name"] for e in payload["frontier"]}
    explored = [e for e in final if e["name"] not in frontier_names]
    charts = []
    for metric, label in (("energy_per_instruction", "pJ/inst"),
                          ("area_mm2", "mm2")):
        charts.append(scatter_chart(
            {
                "explored": [(e["ipc"], e[metric]) for e in explored],
                "frontier": [(e["ipc"], e[metric])
                             for e in final
                             if e["name"] in frontier_names],
            },
            title=f"Final rung: IPC vs {label} "
                  f"({len(final)} configs, frontier marked)",
            x_label="ipc", y_label=label,
        ))
    return "\n\n".join(charts)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``dse`` arguments (shared by ``repro-exp dse`` and
    ``python -m repro.experiments.dse``)."""
    parser.add_argument(
        "--space", default="paper",
        help="Preset name (%s) or JSON space file (default paper)."
             % ", ".join(sorted(PRESET_SPACES)))
    parser.add_argument(
        "--samples", type=int_at_least(1), default=64, metavar="N",
        help="Design points to draw (seeded points always included; "
             "default 64; capped at the space size).")
    parser.add_argument(
        "--budget", type=int_at_least(1), default=4000, metavar="N",
        help="Final-rung measured instructions per run (default 4000).")
    parser.add_argument(
        "--rungs", type=int_at_least(1), default=3, metavar="N",
        help="Successive-halving rungs (default 3; 1 = no screening).")
    parser.add_argument(
        "--eta", type=int_at_least(2), default=3, metavar="N",
        help="Halving rate: rung budgets grow and survivor counts "
             "shrink by this factor (default 3).")
    parser.add_argument(
        "--min-measure", type=int_at_least(1), default=200, metavar="N",
        help="Floor on any rung's measured instructions (default 200).")
    parser.add_argument(
        "--warmup-factor", type=float_at_least(0.0), default=4.0,
        metavar="F",
        help="Functional warm-up per rung = F x measured instructions "
             "(default 4.0).")
    parser.add_argument(
        "--benchmarks", nargs="*", default=None,
        choices=ALL_BENCHMARKS, metavar="BENCHMARK",
        help="Benchmarks to measure (geomean across them; default "
             f"{' '.join(DEFAULT_BENCHMARKS)}).")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="Seed for the design-point sampler and trace generation "
             "(default 0).")
    add_sweep_args(parser)
    parser.add_argument(
        "--out", default="dse-frontier.json", metavar="PATH",
        help="Frontier JSON output path (default dse-frontier.json).")
    parser.add_argument(
        "--chart", action="store_true",
        help="Print textchart scatter plots of the final rung.")
    parser.add_argument(
        "--chart-out", default=None, metavar="PATH",
        help="Also write the frontier table + scatter charts to PATH.")
    parser.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="Write a run manifest (provenance + per-config "
             "aggregates; diffable with repro-exp diff).")
    parser.add_argument(
        "--timeline", default=None, metavar="PATH",
        help="Write a Perfetto-loadable trace with one span per rung "
             "and per simulated job.")
    parser.add_argument(
        "--verify", default=None, metavar="FRONTIER_JSON",
        help="Verify the invariant gauntlet on an existing frontier "
             f"JSON and exit ({EXIT_INVARIANT} on violation); no "
             "simulation.")
    parser.add_argument(
        "--list-spaces", action="store_true",
        help="List the preset spaces and their sizes, then exit.")


def _cmd_verify(path: str) -> int:
    try:
        with open(path) as stream:
            payload = json.load(stream)
    except (OSError, json.JSONDecodeError) as error:
        print(f"dse --verify: cannot load {path}: {error}",
              file=sys.stderr)
        return 2
    problems = verify_payload(payload)
    if problems:
        print(f"dse --verify: {len(problems)} invariant violation(s) "
              f"in {path}:")
        for problem in problems:
            print(f"  - {problem}")
        return EXIT_INVARIANT
    frontier = len(payload.get("frontier", []))
    print(f"dse --verify: OK — {frontier} frontier config(s) of "
          f"{payload.get('samples', '?')} sampled; exact frontier, "
          f"dominance chain and promotion budgets all hold")
    return 0


def cmd(args: argparse.Namespace,
        argv: Optional[Sequence[str]] = None) -> int:
    """Run the ``dse`` subcommand (already-parsed arguments).

    ``argv`` is the argument list they were parsed from, recorded as
    the manifest's ``command`` (default ``sys.argv[1:]``).
    """
    if args.verify:
        return _cmd_verify(args.verify)
    if args.list_spaces:
        for name in sorted(PRESET_SPACES):
            space = PRESET_SPACES[name]()
            print(f"{name:8s} {space.grid_size():5d} grid points + "
                  f"{len(space.seeds):2d} seeds  {space.description}")
        return 0
    try:
        space = load_space(args.space)
    except SpaceError as error:
        print(f"dse: --space: {error}", file=sys.stderr)
        return 2
    benchmarks = (list(args.benchmarks) if args.benchmarks
                  else list(DEFAULT_BENCHMARKS))

    started = time.time()
    with applied(args) as settings:
        result = explore(
            space, samples=args.samples, budget=args.budget,
            rungs=args.rungs, eta=args.eta, benchmarks=benchmarks,
            seed=args.seed, min_measure=args.min_measure,
            warmup_factor=args.warmup_factor, log=print)
        job_records = runner.pop_job_records()
        failures = runner.failed_runs()

    payload = result.payload
    replace_json(args.out, payload, indent=2, sort_keys=True,
                 trailing_newline=True)
    table = format_frontier_table(payload)
    print(table)
    charts = None
    if args.chart or args.chart_out:
        charts = format_charts(payload)
    if args.chart:
        print()
        print(charts)
    if args.chart_out:
        with replacing(args.chart_out) as stream:
            stream.write(table + "\n\n" + charts + "\n")
        print(f"charts written to {args.chart_out}")
    if payload["failed"]:
        print(f"[{len(payload['failed'])} config(s) failed and were "
              f"dropped: {sorted(payload['failed'])}; re-run with "
              f"--resume to retry them]")
    print(f"frontier JSON written to {args.out} "
          f"({len(payload['frontier'])} frontier configs of "
          f"{payload['samples']} sampled)")
    print_cache_line(settings)

    if args.manifest:
        # The final rung's interval: the one its aggregates ran at.
        measure = rung_measure(args.budget, args.eta, args.rungs,
                               args.rungs - 1, args.min_measure)
        runner.build_manifest(
            settings, job_records, failures, started,
            command=sys.argv[1:] if argv is None else argv,
            experiments=["dse"], benchmarks=benchmarks,
            measure=measure,
            warmup=int(round(measure * args.warmup_factor)),
            seed=args.seed, outputs={"frontier": args.out},
            runs=sorted(result.final_runs, key=lambda final: (
                final[1].model, final[1].benchmark)),
        ).write(args.manifest)
        print(f"run manifest written to {args.manifest}")

    if args.timeline:
        from repro.obs.traceevent import export_timelines

        export_timelines((), args.timeline, [
            {"name": name, "ts": (began - started) * 1e6,
             "dur": (ended - began) * 1e6, "tid": 1}
            for name, began, ended in result.rung_spans],
            job_records, started)
        print(f"timeline trace written to {args.timeline}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-exp dse",
        description="Design-space autotuner: successive halving over a "
                    "declarative config space, exact Pareto frontier "
                    "over (IPC, energy/instruction, area).")
    configure_parser(parser)
    return cmd(parser.parse_args(argv), argv)


if __name__ == "__main__":
    sys.exit(main())
