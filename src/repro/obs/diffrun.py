"""Cross-run regression diffing of run manifests.

A :class:`~repro.obs.manifest.RunManifest` now carries per-(model,
benchmark) result aggregates (IPC, energy, stall mix, sim speed).  This
module compares two manifests of the same sweep — typically "main" vs
"this branch", or yesterday's nightly vs today's — and classifies each
metric change:

* ``regression`` — IPC dropped or energy/instruction rose past the
  threshold; these trip the gate (exit code :data:`EXIT_REGRESSION`).
* ``warning`` — sim-speed dropped past its (looser) threshold, or a
  (model, benchmark) pair disappeared.  Sim speed is only compared when
  the two manifests share a host fingerprint (hostname, platform,
  python, cpu_count) *and* worker count — wall-clock numbers from
  different machines are not comparable.
* ``info`` — the stall-cause mix shifted (where the cycles went moved,
  even if IPC held); improvements are reported here too.

Entry points::

    fxa-experiments ... --manifest B.manifest.json   # record a CLI run
    repro-exp diff A.manifest.json B.manifest.json   # gate it
    repro-exp report RUN.manifest.json OUT.html      # HTML report

and :func:`append_trajectory` accumulates each run's aggregates into a
``BENCH_trajectory.json`` history so the perf trajectory of the repo
builds up run over run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.atomicio import locked, replace_json
from repro.obs.manifest import RunManifest

#: Exit code of ``repro-exp diff`` when at least one metric regressed
#: past its threshold.  Distinct from 1 (crash) and 2 (usage error /
#: unloadable manifest).
EXIT_REGRESSION = 3


@dataclass
class DiffThresholds:
    """Relative-change tolerances; changes inside them are ignored."""

    ipc: float = 0.02            # IPC drop > 2 % -> regression
    energy: float = 0.02         # energy/instruction rise > 2 %
    sim_speed: float = 0.30      # insts/second drop > 30 % -> warning
    stall_share: float = 0.05    # stall-mix share move > 5 pts -> info


@dataclass
class MetricDelta:
    """One metric's change between the two manifests."""

    model: str
    benchmark: str
    metric: str
    base: float
    new: float
    severity: str                # "regression" | "warning" | "info"
    note: str = ""

    @property
    def rel_change(self) -> float:
        if not self.base:
            return 0.0
        return self.new / self.base - 1.0

    def describe(self) -> str:
        where = f"{self.model}/{self.benchmark}" if self.benchmark \
            else self.model
        text = (f"{self.severity:>10s}  {where:28s} {self.metric:24s} "
                f"{self.base:12.4f} -> {self.new:12.4f} "
                f"({self.rel_change:+.1%})")
        if self.note:
            text += f"  [{self.note}]"
        return text

    def to_dict(self) -> Dict:
        return {
            "model": self.model, "benchmark": self.benchmark,
            "metric": self.metric, "base": self.base, "new": self.new,
            "rel_change": self.rel_change, "severity": self.severity,
            "note": self.note,
        }


@dataclass
class DiffReport:
    """Everything :func:`diff_manifests` found, worst first."""

    deltas: List[MetricDelta] = field(default_factory=list)
    compared: int = 0            # (model, benchmark) pairs compared
    sim_speed_compared: bool = False

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.severity == "regression"]

    @property
    def warnings(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict:
        return {
            "compared": self.compared,
            "sim_speed_compared": self.sim_speed_compared,
            "ok": self.ok,
            "regressions": len(self.regressions),
            "warnings": len(self.warnings),
            "deltas": [d.to_dict() for d in self.deltas],
        }


def _aggregate_index(manifest: RunManifest) -> Dict[Tuple[str, str],
                                                    Dict]:
    return {
        (entry["model"], entry["benchmark"]): entry
        for entry in manifest.aggregates
    }


def _hosts_comparable(a: RunManifest, b: RunManifest) -> bool:
    keys = ("hostname", "platform", "python", "cpu_count")
    return (all(a.host.get(k) == b.host.get(k) for k in keys)
            and a.workers == b.workers)


def diff_manifests(base: RunManifest, new: RunManifest,
                   thresholds: Optional[DiffThresholds] = None
                   ) -> DiffReport:
    """Compare ``new`` against ``base`` per (model, benchmark) pair.

    Only pairs present in both manifests are metric-compared; pairs
    that disappeared become warnings, new pairs are informational.
    """
    thresholds = thresholds or DiffThresholds()
    base_index = _aggregate_index(base)
    new_index = _aggregate_index(new)
    report = DiffReport(
        sim_speed_compared=_hosts_comparable(base, new))

    for key in sorted(set(base_index) - set(new_index)):
        report.deltas.append(MetricDelta(
            model=key[0], benchmark=key[1], metric="present",
            base=1.0, new=0.0, severity="warning",
            note="pair missing from new manifest"))
    for key in sorted(set(new_index) - set(base_index)):
        report.deltas.append(MetricDelta(
            model=key[0], benchmark=key[1], metric="present",
            base=0.0, new=1.0, severity="info",
            note="pair new in this manifest"))

    for key in sorted(set(base_index) & set(new_index)):
        model, benchmark = key
        old, cur = base_index[key], new_index[key]
        report.compared += 1

        old_ipc, cur_ipc = old.get("ipc", 0.0), cur.get("ipc", 0.0)
        if old_ipc > 0 and cur_ipc > 0:
            change = cur_ipc / old_ipc - 1.0
            if change < -thresholds.ipc:
                report.deltas.append(MetricDelta(
                    model, benchmark, "ipc", old_ipc, cur_ipc,
                    "regression"))
            elif change > thresholds.ipc:
                report.deltas.append(MetricDelta(
                    model, benchmark, "ipc", old_ipc, cur_ipc,
                    "info", note="improvement"))

        old_epi = old.get("energy_per_instruction", 0.0)
        cur_epi = cur.get("energy_per_instruction", 0.0)
        if old_epi > 0 and cur_epi > 0:
            change = cur_epi / old_epi - 1.0
            if change > thresholds.energy:
                report.deltas.append(MetricDelta(
                    model, benchmark, "energy_per_instruction",
                    old_epi, cur_epi, "regression"))
            elif change < -thresholds.energy:
                report.deltas.append(MetricDelta(
                    model, benchmark, "energy_per_instruction",
                    old_epi, cur_epi, "info", note="improvement"))

        _diff_stall_mix(report, model, benchmark,
                        old.get("stalls") or {}, cur.get("stalls") or {},
                        thresholds.stall_share)

        if report.sim_speed_compared:
            old_speed = old.get("insts_per_second", 0.0)
            cur_speed = cur.get("insts_per_second", 0.0)
            if old_speed > 0 and cur_speed > 0:
                change = cur_speed / old_speed - 1.0
                if change < -thresholds.sim_speed:
                    report.deltas.append(MetricDelta(
                        model, benchmark, "insts_per_second",
                        old_speed, cur_speed, "warning",
                        note="simulator slowdown"))

    rank = {"regression": 0, "warning": 1, "info": 2}
    report.deltas.sort(
        key=lambda d: (rank[d.severity], d.model, d.benchmark, d.metric))
    return report


def _diff_stall_mix(report: DiffReport, model: str, benchmark: str,
                    old: Dict[str, int], cur: Dict[str, int],
                    threshold: float) -> None:
    """Share-of-total comparison of the stall-cause mix (info only:
    cycles moving between causes is diagnosis, not a gate)."""
    old_total, cur_total = sum(old.values()), sum(cur.values())
    if not old_total or not cur_total:
        return
    for cause in sorted(set(old) | set(cur)):
        old_share = old.get(cause, 0) / old_total
        cur_share = cur.get(cause, 0) / cur_total
        if abs(cur_share - old_share) > threshold:
            report.deltas.append(MetricDelta(
                model, benchmark, f"stall_share.{cause}",
                old_share, cur_share, "info",
                note="stall mix shifted"))


def format_diff_report(report: DiffReport, base_label: str = "base",
                       new_label: str = "new") -> str:
    """Human-readable summary, regressions first."""
    lines = [
        f"Manifest diff: {new_label} vs {base_label} "
        f"({report.compared} pair(s) compared"
        + ("" if report.sim_speed_compared
           else "; sim-speed skipped: different hosts") + ")"
    ]
    if not report.deltas:
        lines.append("  no changes beyond thresholds")
    for delta in report.deltas:
        lines.append("  " + delta.describe())
    lines.append(
        f"result: {'OK' if report.ok else 'REGRESSED'} "
        f"({len(report.regressions)} regression(s), "
        f"{len(report.warnings)} warning(s))")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Benchmark trajectory history
# ----------------------------------------------------------------------


def append_trajectory(manifest: RunManifest, path: str) -> Dict:
    """Append this run's per-model aggregate roll-up to the JSON
    history at ``path`` (created on first use); returns the entry.

    Each entry reduces the manifest's aggregates to one row per model
    (mean IPC, mean energy/instruction, benchmark count) plus enough
    provenance (code version, host, timestamps, sweep shape) to plot a
    perf trajectory across commits.
    """
    models: Dict[str, Dict] = {}
    for aggregate in manifest.aggregates:
        row = models.setdefault(aggregate["model"], {
            "ipc_sum": 0.0, "epi_sum": 0.0, "benchmarks": 0,
        })
        row["ipc_sum"] += aggregate.get("ipc", 0.0)
        row["epi_sum"] += aggregate.get("energy_per_instruction", 0.0)
        row["benchmarks"] += 1
    entry = {
        "finished_at": manifest.finished_at,
        "code_version": manifest.code_version,
        "repro_version": manifest.repro_version,
        "host": manifest.host,
        "measure": manifest.measure,
        "warmup": manifest.warmup,
        "seed": manifest.seed,
        "workers": manifest.workers,
        "wall_seconds": manifest.wall_seconds,
        "jobs_simulated": manifest.jobs_simulated,
        "models": {
            model: {
                "mean_ipc": row["ipc_sum"] / row["benchmarks"],
                "mean_energy_per_instruction":
                    row["epi_sum"] / row["benchmarks"],
                "benchmarks": row["benchmarks"],
            }
            for model, row in sorted(models.items())
        },
    }
    return append_history_entry(entry, path)


def append_history_entry(entry: Dict, path: str) -> Dict:
    """Append ``entry`` to the ``{"entries": [...]}`` JSON history at
    ``path`` (created on first use); returns the entry.  Shared by the
    ``--trajectory`` IPC/energy history and the simspeed throughput
    history (BENCH_simspeed.json) so both files read identically.

    Safe under concurrency: the read-modify-write runs under an
    exclusive lock on a ``<path>.lock`` sidecar and the new history is
    published with tmp file + ``os.replace``, so two sweeps appending
    to one trajectory file lose no entries and concurrent readers
    never see torn JSON.  A corrupt or truncated history (which may
    hold months of trajectory) is preserved as ``<path>.corrupt``
    before a fresh history is started, never silently discarded.
    """
    with locked(path):
        history: object = None
        corrupt = False
        try:
            with open(path) as handle:
                history = json.load(handle)
        except FileNotFoundError:
            pass
        except (json.JSONDecodeError, UnicodeDecodeError):
            corrupt = True
        if not (history is None or isinstance(history, dict)):
            corrupt = True
        if corrupt:
            os.replace(path, f"{path}.corrupt")
            history = None
        if history is None:
            history = {"entries": []}
        history.setdefault("entries", []).append(entry)
        replace_json(path, history, indent=2, sort_keys=True,
                     trailing_newline=True)
    return entry


# ----------------------------------------------------------------------
# The repro-exp console script
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Manifest-level experiment utilities.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Lazy imports: repro.experiments.cli imports this module at import
    # time, so pulling in the experiments package here would cycle.
    from repro.experiments import dse as dse_module
    from repro.experiments.sweepflags import float_at_least
    from repro.serve import server as serve_module
    from repro.serve import spool as spool_module
    from repro.serve import top as top_module

    diff = sub.add_parser(
        "diff", help="compare two run manifests for regressions "
                     f"(exit {EXIT_REGRESSION} on a threshold breach)")
    diff.add_argument("base", help="baseline *.manifest.json")
    diff.add_argument("new", help="candidate *.manifest.json")
    diff.add_argument("--threshold",
                      type=float_at_least(0.0, exclusive=True),
                      default=None, metavar="FRAC",
                      help="IPC/energy regression tolerance "
                           "(default 0.02 = 2%%)")
    diff.add_argument("--json", metavar="PATH", default=None,
                      help="also write the report as JSON")
    diff.add_argument("--trajectory", metavar="PATH", default=None,
                      help="append the candidate manifest's aggregates "
                           "to this history file")

    report = sub.add_parser(
        "report", help="render a manifest as a self-contained static "
                       "HTML report (offline-viewable, no JS/assets)")
    report.add_argument("manifest", help="run *.manifest.json")
    report.add_argument("output", help="output HTML path")
    report.add_argument("--baseline", metavar="MANIFEST", default=None,
                        help="baseline manifest for an A/B section")
    report.add_argument("--title", default=None,
                        help="report title (default derives from the "
                             "manifest path)")

    dse = sub.add_parser(
        "dse", help="design-space autotuner: successive-halving sweep "
                    "over a config space, exact (IPC, energy, area) "
                    "Pareto frontier")
    dse_module.configure_parser(dse)

    serve = sub.add_parser(
        "serve", help="simulation-as-a-service: asyncio HTTP/JSON job "
                      "server over the sweep engine (cache dedup, "
                      "fault-tolerant pool, streamed progress)")
    serve_module.configure_parser(serve)

    worker = sub.add_parser(
        "spool-worker", help="claim and execute queued jobs from a "
                             "shared spool directory (multi-host "
                             "execution behind repro-exp serve)")
    spool_module.configure_parser(worker)

    top = sub.add_parser(
        "top", help="live terminal dashboard for a running server: "
                    "queue depth, hit ratio, latency percentiles, "
                    "throughput sparklines from /v1/metrics")
    top_module.configure_parser(top)

    args = parser.parse_args(argv)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "dse":
        return dse_module.cmd(args, argv)
    if args.command == "serve":
        return serve_module.cmd(args)
    if args.command == "spool-worker":
        return spool_module.cmd(args)
    if args.command == "top":
        return top_module.cmd(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


def _cmd_diff(args) -> int:
    thresholds = DiffThresholds()
    if args.threshold is not None:
        thresholds.ipc = thresholds.energy = args.threshold
    try:
        base = RunManifest.read(args.base)
        new = RunManifest.read(args.new)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"repro-exp diff: cannot load manifest: {exc}",
              file=sys.stderr)
        return 2
    if not base.aggregates or not new.aggregates:
        print("repro-exp diff: manifest has no aggregates "
              "(produced by an older harness version?)",
              file=sys.stderr)
        return 2
    report = diff_manifests(base, new, thresholds)
    print(format_diff_report(report, base_label=args.base,
                             new_label=args.new))
    if args.json:
        replace_json(args.json, report.to_dict(), indent=2,
                     sort_keys=True, trailing_newline=True)
    if args.trajectory:
        append_trajectory(new, args.trajectory)
        print(f"trajectory appended to {args.trajectory}")
    return 0 if report.ok else EXIT_REGRESSION


def _cmd_report(args) -> int:
    from repro.obs.report import write_report

    try:
        manifest = RunManifest.read(args.manifest)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"repro-exp report: cannot load manifest: {exc}",
              file=sys.stderr)
        return 2
    baseline = None
    if args.baseline is not None:
        try:
            baseline = RunManifest.read(args.baseline)
        except (OSError, json.JSONDecodeError, KeyError,
                TypeError) as exc:
            print(f"repro-exp report: cannot load baseline: {exc}",
                  file=sys.stderr)
            return 2
    title = args.title or f"FXA experiment report - {args.manifest}"
    write_report(args.output, manifest, baseline=baseline,
                 base_label=args.baseline or "baseline", title=title)
    print(f"report written to {args.output}")
    return 0


def run() -> None:
    """Console-script entry point (``repro-exp``)."""
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())


__all__ = [
    "EXIT_REGRESSION",
    "DiffThresholds",
    "MetricDelta",
    "DiffReport",
    "diff_manifests",
    "format_diff_report",
    "append_trajectory",
    "main",
    "run",
]
