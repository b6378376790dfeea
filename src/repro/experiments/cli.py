"""Command-line entry point: regenerate any table or figure.

Examples::

    fxa-experiments table1
    fxa-experiments figure7 --measure 4000 --benchmarks hmmer mcf lbm
    fxa-experiments all --jobs 8
    fxa-experiments headline --jobs 4 --cache-dir /tmp/fxa-cache

Simulations fan out over ``--jobs`` worker processes and finished runs
persist in an on-disk cache (``--cache-dir``, default
``~/.cache/fxa-repro``), so re-generating a figure after the first run
costs no simulation at all.  ``--no-cache`` forces re-simulation.

Observability (see :mod:`repro.obs`)::

    fxa-experiments headline --stall-report --benchmarks hmmer mcf
    fxa-experiments headline --stall-report-csv stalls.csv
    fxa-experiments headline --metrics-json metrics.json
    fxa-experiments headline --topdown --benchmarks hmmer mcf
    fxa-experiments headline --report report.html
    fxa-experiments headline --pipeview trace.kanata.gz
    fxa-experiments headline --timeline tl.json --timeline-report
    fxa-experiments headline --json out.json   # + out.manifest.json

``--stall-report`` appends a where-did-the-cycles-go breakdown per
model (``--stall-report-csv`` / ``--metrics-json`` write the same pass
machine-readably), ``--topdown`` prints the hierarchical slot
accounting and energy-by-class tables (:mod:`repro.obs.topdown`),
``--report`` writes the self-contained HTML report bundling all of it
(:mod:`repro.obs.report`; ``--report-baseline`` adds an A/B section),
``--pipeview`` writes a Kanata pipeline trace loadable by the Konata
visualiser (gzipped when the path ends ``.gz``), ``--timeline``
exports interval telemetry of all four core types as Perfetto-loadable
JSON (``--timeline-report`` prints the terminal phase view), and every
``--json`` run also emits a provenance manifest (``--manifest PATH``
writes one explicitly).

Regression gating (see :mod:`repro.obs.diffrun`)::

    fxa-experiments headline --manifest new.manifest.json
    repro-exp diff old.manifest.json new.manifest.json  # exit 3
    fxa-experiments headline --trajectory BENCH_trajectory.json
    repro-exp report new.manifest.json report.html --baseline old...
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.atomicio import replace_json, replacing
from repro.core import MODEL_NAMES, model_config
from repro.experiments import (
    figure7, figure8, figure9, figure10, figure11, figure12, figure13,
    headline, related_work, reno, sensitivity, tables,
)
from repro.experiments import runner, sweepflags
from repro.experiments.pool import (
    SweepAborted,
    split_outcomes,
    total_wall_seconds,
)
from repro.obs import (
    DEFAULT_INTERVAL,
    KanataWriter,
    Observability,
    RunManifest,
    STALL_CAUSES,
    TimelineCollector,
    TopDownCollector,
    format_energy_by_class,
    format_stall_chart,
    format_stall_table,
    format_timeline_report,
    format_topdown_report,
    manifest_path_for,
    merge_topdown_payloads,
)
from repro.obs.diffrun import append_trajectory
from repro.obs.traceevent import export_timelines
from repro.workloads import ALL_BENCHMARKS

#: Models the observability passes simulate ("CA" included: the
#: related-work comparator stalls differently than the Table I models).
_OBS_MODELS = MODEL_NAMES + ("CA",)

_SIM_EXPERIMENTS = {
    "figure7": figure7,
    "figure8": figure8,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "figure13": figure13,
    "headline": headline,
    "sensitivity": sensitivity,
    "related_work": related_work,
    "reno": reno,
}


def _run_one(name: str, benchmarks: Optional[List[str]],
             measure: int, warmup: int, chart: bool = False):
    """Run one experiment; returns (rendered text, raw results)."""
    if name == "table1":
        results = tables.table1()
        return tables.format_table1(results), results
    if name == "table2":
        results = tables.table2()
        return tables.format_table2(results), results
    if name == "figure9":
        results = figure9.run()
        return figure9.format_table(results), results
    module = _SIM_EXPERIMENTS[name]
    results = module.run(
        benchmarks=benchmarks, measure=measure, warmup=warmup
    )
    text = module.format_table(results)
    if chart and hasattr(module, "format_chart"):
        text += "\n\n" + module.format_chart(results)
    return text, results


def _obs_pass(benchmarks: Optional[List[str]], measure: int,
              warmup: int, with_metrics: bool,
              with_topdown: bool = False) -> Tuple[Dict, Dict]:
    """One observed re-simulation of every model, shared by
    ``--stall-report``, ``--stall-report-csv``, ``--metrics-json``,
    ``--topdown`` and ``--report``.

    Observed runs bypass both caches (the cached records were produced
    without attribution), so this re-simulates; prefer a ``--benchmarks``
    subset for interactive use.  Returns ({(model, benchmark):
    CoreStats}, {(model, benchmark): TopDownCollector}); metrics
    histograms and the top-down tree are only collected when something
    will consume them.
    """
    observed: Dict = {}
    topdowns: Dict = {}
    for model in _OBS_MODELS:
        config = model_config(model)
        for benchmark in benchmarks or ALL_BENCHMARKS:
            topdown = TopDownCollector() if with_topdown else None
            obs = Observability(metrics=with_metrics, topdown=topdown)
            run = runner.simulate(config, benchmark, measure, warmup,
                                  obs=obs)
            observed[(model, benchmark)] = run.stats
            if topdown is not None:
                topdown.benchmark = benchmark
                topdowns[(model, benchmark)] = topdown
    return observed, topdowns


def _format_stall_report(observed: Dict,
                         benchmarks: Optional[List[str]]) -> str:
    """Render the "where did the cycles go" table plus stacked chart."""
    reports: Dict[str, Dict[str, int]] = {}
    cycles: Dict[str, int] = {}
    for (model, _benchmark), stats in observed.items():
        counts = reports.setdefault(model, {})
        for cause, value in stats.stalls.items():
            counts[cause] = counts.get(cause, 0) + value
        cycles[model] = cycles.get(model, 0) + stats.cycles
    suite = ", ".join(benchmarks) if benchmarks else "all benchmarks"
    return (
        format_stall_table(
            reports, cycles,
            title=f"Stall-cause breakdown ({suite})")
        + "\n\n"
        + format_stall_chart(reports, title="Stall cycles by cause")
    )


def _write_stall_csv(observed: Dict, path: str) -> None:
    """Machine-readable stall attribution: one row per observed run,
    one column per taxonomy cause (fixed schema, dashboards can rely
    on the header)."""
    import csv

    with replacing(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["model", "benchmark", "cycles", "committed",
                         "stall_cycles", *STALL_CAUSES])
        for (model, benchmark), stats in observed.items():
            writer.writerow([
                model, benchmark, stats.cycles, stats.committed,
                stats.stall_cycles,
                *(stats.stalls.get(cause, 0) for cause in STALL_CAUSES),
            ])


def _write_metrics_json(observed: Dict, topdowns: Dict,
                        path: str) -> None:
    """Full metrics registry (counters + occupancy histograms) per
    observed run, as JSON; includes the top-down slot tree and
    energy-by-class attribution when the pass collected them."""
    payload = [
        {
            "model": model,
            "benchmark": benchmark,
            "cycles": stats.cycles,
            "committed": stats.committed,
            "ipc": stats.ipc,
            "stalls": stats.stalls,
            "metrics": stats.metrics,
            "topdown": (
                topdowns[(model, benchmark)].to_dict()
                if (model, benchmark) in topdowns else None),
        }
        for (model, benchmark), stats in observed.items()
    ]
    replace_json(path, payload, indent=2, sort_keys=True,
                 trailing_newline=True)


#: The four core types the timeline pass samples (one per
#: microarchitecture: in-order, out-of-order, FXA, clustered).
_TIMELINE_MODELS = ("LITTLE", "HALF", "HALF+FX", "CA")


def _pass_benchmark(args) -> str:
    """The benchmark of the one-benchmark passes (timeline, pipeview,
    profile): the first ``--benchmarks`` entry, else hmmer."""
    return args.benchmarks[0] if args.benchmarks else "hmmer"


def _timeline_pass(args, started_clock: float):
    """Serially simulate the four core types with interval telemetry on.

    Serial and in-process by design: the samples must be identical
    whatever ``--jobs`` says.  Returns (collectors, host-span dicts for
    the Perfetto export, timed per simulated model).
    """
    benchmark = _pass_benchmark(args)
    collectors = []
    spans = []
    for model in _TIMELINE_MODELS:
        collector = TimelineCollector(interval=args.interval)
        obs = Observability(metrics=False, stalls=False,
                            timeline=collector)
        begin = time.time()
        runner.simulate(model_config(model), benchmark, args.measure,
                        args.warmup, obs=obs)
        collector.benchmark = benchmark
        spans.append({
            "name": f"timeline sim {model}/{benchmark}",
            "ts": (begin - started_clock) * 1e6,
            "dur": (time.time() - begin) * 1e6,
        })
        collectors.append(collector)
    return collectors, spans


def _observed_fields(observed: Dict, topdowns: Dict) -> Dict:
    """The observed pass's manifest-aggregate fields per (model,
    benchmark): the stall mix, plus fast-forward engagement and the
    top-down payload when the pass collected the top-down tree (else 0
    and None; ``--metrics-json`` turns the tree on too).  A run the
    pass did not observe keeps its own stall mix, 0 and None (see
    :func:`runner.build_manifest`)."""
    fields = {}
    for key, stats in observed.items():
        topdown = topdowns.get(key)
        fields[key] = {
            "stalls": stats.stalls,
            "ff_skipped": topdown.ff_skipped if topdown is not None else 0,
            "topdown": topdown.to_dict() if topdown is not None else None}
    return fields


def _merge_topdowns(topdowns: Dict) -> Dict[str, Dict]:
    """Collapse the observed pass's per-(model, benchmark) collectors
    into one merged payload per model (the suite-level view the
    terminal tree and the HTML report render)."""
    per_model: Dict[str, List[Dict]] = {}
    for (model, _benchmark), collector in sorted(topdowns.items()):
        per_model.setdefault(model, []).append(collector.to_dict())
    return {model: merge_topdown_payloads(payloads)
            for model, payloads in per_model.items()}


def _write_pipeview(args) -> str:
    """Run one observed simulation and write its Kanata trace."""
    benchmark = _pass_benchmark(args)
    writer = KanataWriter(args.pipeview, window=args.pipeview_window)
    obs = Observability(metrics=False, stalls=False, pipeview=writer)
    runner.simulate(model_config(args.pipeview_model), benchmark,
                    args.measure, args.warmup, obs=obs)
    writer.close()
    return (f"pipeline trace: {writer.recorded} instructions of "
            f"{args.pipeview_model}/{benchmark} written to "
            f"{args.pipeview} (open with Konata)")


def _profile_sim(args) -> str:
    """cProfile one job's simulation phase and write pstats to disk.

    The trace is memoised (and the allocator warmed) by an untimed
    run first, so the profile contains the simulation phase only —
    no trace generation, no import cost.  Load the output with
    ``python -m pstats OUT.prof`` or snakeviz.
    """
    import cProfile
    import io
    import marshal
    import pstats

    benchmark = _pass_benchmark(args)
    config = model_config(args.profile_model)
    runner.simulate(config, benchmark, args.measure, args.warmup)
    profiler = cProfile.Profile()
    profiler.enable()
    run = runner.simulate(config, benchmark, args.measure, args.warmup)
    profiler.disable()
    profiler.create_stats()  # dump_stats's format, published atomically
    with replacing(args.profile_sim, "wb") as stream:
        marshal.dump(profiler.stats, stream)
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(10)
    top = "\n".join(stream.getvalue().splitlines()[4:18])
    return (f"simulation profile of {args.profile_model}/{benchmark} "
            f"({run.stats.committed} insts) written to "
            f"{args.profile_sim}; top functions by cumulative time:\n"
            f"{top}")


def _print_job_summary(job_records, count: int = 5) -> None:
    """Slowest-jobs accounting for everything actually simulated."""
    total = total_wall_seconds(job_records)
    print(f"[{len(job_records)} jobs simulated, {total:.1f}s of "
          f"simulation; slowest:]")
    slowest = sorted(job_records, key=lambda r: r.wall_seconds,
                     reverse=True)
    for record in slowest[:count]:
        marker = "" if record.ok else "  [FAILED]"
        print(f"  {record.wall_seconds:7.2f}s  pid {record.worker_pid}"
              f"  {record.job.describe()}{marker}")


def _print_failure_summary(failures) -> None:
    """Quarantined-jobs table: which jobs failed, why, how many tries."""
    print(f"[{len(failures)} job(s) FAILED and were quarantined; "
          f"affected figure cells show gaps]")
    print(f"  {'job':44s}{'cause':14s}{'tries':>6s}  error")
    for failure in failures:
        print(f"  {failure.job.describe():44s}{failure.cause:14s}"
              f"{failure.attempts:6d}  {failure.error}")
    print("  [re-run with --resume to retry only the failed jobs]")


def _json_default(obj):
    """Serialize rich result objects through their dict codepath."""
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    return str(obj)


def _run_validation(args) -> int:
    """Handle ``--validate`` and ``--fuzz N`` (exit-code style)."""
    from repro.validate import validate_all
    from repro.validate.fuzz import fuzz, render_summary

    failed = False
    report_payload = {}
    if args.validate:
        reports = validate_all(benchmarks=args.benchmarks,
                               seed=args.seed)
        for report in reports:
            print(report.summary())
            if not report.ok:
                print(report.describe())
                failed = True
        report_payload["validate"] = [r.to_dict() for r in reports]
    if args.fuzz is not None:
        result = fuzz(args.fuzz, args.seed)
        print(render_summary(result))
        failed = failed or not result.ok
        report_payload["fuzz"] = result.to_dict()
    if args.fuzz_report:
        replace_json(args.fuzz_report, report_payload, indent=2,
                     sort_keys=True)
        print(f"validation report written to {args.fuzz_report}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    names = ["table1", "table2", "figure7", "figure8", "figure9",
             "figure10", "figure11", "figure12", "figure13", "headline",
             "sensitivity", "related_work", "reno"]
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument("experiment", nargs="?", default=None,
                        choices=names + ["all"])
    parser.add_argument(
        "--benchmarks", nargs="*", default=None,
        choices=ALL_BENCHMARKS, metavar="BENCHMARK",
        help="Benchmark subset (default: all 29).",
    )
    parser.add_argument(
        "--measure", type=sweepflags.int_at_least(1), default=8000,
        help="Measured instructions per run (default 8000).",
    )
    parser.add_argument(
        "--warmup", type=sweepflags.int_at_least(0), default=30000,
        help="Functional warm-up instructions (default 30000).",
    )
    sweepflags.add_sweep_args(parser)
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="Abort the sweep on the first quarantined job (completed "
             "results are still persisted to the disk cache) instead "
             "of finishing with gaps.",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="Append a text chart to experiments that support one.",
    )
    parser.add_argument(
        "--json", dest="json_path", default=None,
        help="Also dump raw results for all experiments to this file "
             "(a run manifest lands next to it as *.manifest.json).",
    )
    parser.add_argument(
        "--stall-report", action="store_true",
        help="Append a per-model stall-cause breakdown (where did the "
             "cycles go); re-simulates with attribution enabled.",
    )
    parser.add_argument(
        "--stall-report-csv", metavar="PATH", default=None,
        help="Write the stall-cause breakdown as CSV (one row per "
             "model/benchmark, one column per cause); shares the "
             "--stall-report simulation pass.",
    )
    parser.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="Write the full metrics registry (counters + occupancy "
             "histograms) of an observed pass as JSON, including the "
             "top-down slot tree per run.",
    )
    parser.add_argument(
        "--topdown", action="store_true",
        help="Print the TMA-style top-down slot-accounting tree "
             "(retiring IXU/OXU, bad speculation, frontend/backend "
             "bound) and the energy-by-class table per model; shares "
             "the --stall-report simulation pass.",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="Write a self-contained static HTML report (provenance, "
             "aggregates, top-down trees, energy by class, stall mix, "
             "timeline sparklines) to PATH.",
    )
    parser.add_argument(
        "--report-baseline", metavar="MANIFEST", default=None,
        help="Baseline manifest for the --report A/B section "
             "(rendered with the same differ as repro-exp diff; does "
             "not gate the exit code).",
    )
    parser.add_argument(
        "--timeline", metavar="PATH", default=None,
        help="Export interval telemetry of all four core types on the "
             "first --benchmarks entry (else hmmer) as Chrome-trace-"
             "event JSON (load at https://ui.perfetto.dev), including "
             "host wall-clock spans per harness stage and sweep job.",
    )
    parser.add_argument(
        "--timeline-report", action="store_true",
        help="Print the terminal timeline phase view (IPC/energy "
             "sparklines + detected phases).",
    )
    parser.add_argument(
        "--interval", type=sweepflags.int_at_least(1),
        default=DEFAULT_INTERVAL, metavar="N",
        help="Committed instructions per timeline sample "
             f"(default {DEFAULT_INTERVAL}).",
    )
    parser.add_argument(
        "--trajectory", metavar="PATH", default=None,
        help="Append this run's per-model aggregates to a JSON history "
             "(e.g. BENCH_trajectory.json) for cross-run trend plots.",
    )
    parser.add_argument(
        "--pipeview", metavar="PATH", default=None,
        help="Write a Kanata pipeline trace (Konata-loadable) of one "
             "observed simulation of the first --benchmarks entry "
             "(else hmmer) to PATH (gzipped when PATH ends in .gz).",
    )
    parser.add_argument(
        "--pipeview-window", type=sweepflags.int_at_least(1),
        default=2000, metavar="N",
        help="Record at most N instructions in the pipeline trace "
             "(default 2000).",
    )
    parser.add_argument(
        "--pipeview-model", default="HALF+FX", choices=list(_OBS_MODELS),
        help="Model the pipeline trace simulates (default HALF+FX).",
    )
    parser.add_argument(
        "--profile-sim", metavar="OUT.PROF", default=None,
        help="cProfile one job's simulation phase on the first "
             "--benchmarks entry, else hmmer (trace generation "
             "excluded) and write pstats data to OUT.PROF; prints the "
             "top functions by cumulative time.",
    )
    parser.add_argument(
        "--profile-model", default="HALF+FX", choices=list(_OBS_MODELS),
        help="Model the profiled simulation runs (default HALF+FX).",
    )
    parser.add_argument(
        "--manifest", dest="manifest_path", default=None, metavar="PATH",
        help="Write the run manifest (provenance JSON) to PATH.",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="Differentially validate every core model against the "
             "golden oracle (plus invariant checks) on a benchmark "
             "subset (--benchmarks; default hmmer/mcf/lbm) and exit.",
    )
    parser.add_argument(
        "--fuzz", type=sweepflags.int_at_least(1), default=None,
        metavar="N",
        help="Run N seeded config/workload fuzz cases through the "
             "validation harness and exit (see repro.validate.fuzz).",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="Seed for --fuzz / --validate trace generation "
             "(default 0).",
    )
    parser.add_argument(
        "--fuzz-report", default=None, metavar="PATH",
        help="Write the JSON divergence report of --fuzz/--validate "
             "to PATH (CI uploads it on failure).",
    )
    args = parser.parse_args(argv)
    if args.validate or args.fuzz is not None:
        return _run_validation(args)
    if args.experiment is None:
        parser.error("an experiment name is required "
                     "(or --validate / --fuzz N)")
    report_baseline_manifest = None
    if args.report_baseline:
        if not args.report:
            parser.error("--report-baseline requires --report")
        try:
            report_baseline_manifest = RunManifest.read(
                args.report_baseline)
        except (OSError, ValueError, KeyError, TypeError) as error:
            parser.error(f"--report-baseline: cannot load "
                         f"{args.report_baseline}: {error}")
    started_clock = time.time()
    todo = names if args.experiment == "all" else [args.experiment]
    collected = {}
    stage_spans: List[Dict] = []  # harness stages, for the Perfetto view

    def _staged(name: str, began: float) -> None:
        stage_spans.append({
            "name": name,
            "ts": (began - started_clock) * 1e6,
            "dur": (time.time() - began) * 1e6,
            "tid": 1,
        })

    with sweepflags.applied(args) as settings:
        try:
            for name in todo:
                started = time.time()
                text, results = _run_one(name, args.benchmarks, args.measure,
                                         args.warmup, chart=args.chart)
                _staged(f"experiment {name}", started)
                print(text)
                print(f"[{name}: {time.time() - started:.1f}s]")
                print()
                collected[name] = results
            observed: Dict = {}
            topdowns: Dict = {}
            if (args.stall_report or args.stall_report_csv
                    or args.metrics_json or args.topdown or args.report):
                started = time.time()
                observed, topdowns = _obs_pass(
                    args.benchmarks, args.measure, args.warmup,
                    with_metrics=bool(args.metrics_json),
                    with_topdown=bool(args.topdown or args.report
                                      or args.metrics_json))
                _staged("observability pass", started)
            if args.stall_report:
                print(_format_stall_report(observed, args.benchmarks))
                print()
            if args.topdown:
                merged = _merge_topdowns(topdowns)
                print(format_topdown_report(merged))
                print()
                print(format_energy_by_class(merged))
                print()
            if args.stall_report_csv:
                _write_stall_csv(observed, args.stall_report_csv)
                print(f"stall report CSV written to {args.stall_report_csv}")
            if args.metrics_json:
                _write_metrics_json(observed, topdowns, args.metrics_json)
                print(f"metrics written to {args.metrics_json}")
            timeline_collectors = []
            timeline_spans: List[Dict] = []
            if args.timeline or args.timeline_report or args.report:
                started = time.time()
                timeline_collectors, timeline_spans = _timeline_pass(
                    args, started_clock)
                _staged("timeline pass", started)
            if args.timeline_report:
                print(format_timeline_report(timeline_collectors))
                print()
            pipeview_note = None
            if args.pipeview:
                started = time.time()
                pipeview_note = _write_pipeview(args)
                _staged("pipeview pass", started)
                print(pipeview_note)
            if args.profile_sim:
                started = time.time()
                print(_profile_sim(args))
                _staged("profile pass", started)
            job_records = runner.pop_job_records()
            served_runs = runner.pop_served_runs()
            if args.timeline:
                export_timelines(timeline_collectors, args.timeline,
                                 stage_spans + timeline_spans,
                                 job_records, started_clock)
                print(f"timeline trace written to {args.timeline} "
                      f"(load at https://ui.perfetto.dev)")
            if job_records:
                _print_job_summary(job_records)
            failures = runner.failed_runs()
            if failures:
                _print_failure_summary(failures)
            sweepflags.print_cache_line(settings)
            cache = settings.cache
            if args.resume and cache is not None:
                simulated = sum(1 for r in job_records if r.ok)
                print(f"[resume: {cache.hits} job(s) replayed from cache, "
                      f"{simulated} re-simulated]")
        except SweepAborted as aborted:
            completed, _ = split_outcomes(runner.pop_job_records())
            print(f"sweep aborted (--fail-fast): {aborted}")
            print(f"[{len(completed)} completed job(s) were persisted to "
                  f"the disk cache before the abort; re-run with --resume "
                  f"to retry only the failed jobs]")
            return 2
    if args.json_path:
        replace_json(args.json_path, collected, indent=2, sort_keys=True,
                     default=_json_default)
        print(f"raw results written to {args.json_path}")
    manifest_paths = []
    if args.manifest_path:
        manifest_paths.append(args.manifest_path)
    if args.json_path:
        manifest_paths.append(manifest_path_for(args.json_path))
    outputs = {name: path for name, path in (
        ("json", args.json_path), ("pipeview", args.pipeview),
        ("timeline", args.timeline),
        ("stall_report_csv", args.stall_report_csv),
        ("profile", args.profile_sim), ("metrics_json", args.metrics_json),
        ("report", args.report)) if path}
    # Built even with no --manifest/--json: --report renders it and
    # --trajectory appends it.
    manifest = runner.build_manifest(
        settings, job_records, failures, started_clock,
        command=sys.argv[1:] if argv is None else argv,
        experiments=todo, benchmarks=args.benchmarks,
        measure=args.measure, warmup=args.warmup, outputs=outputs,
        runs=sorted(served_runs, key=lambda served: (
            served[1].model, served[1].benchmark)),
        observed=_observed_fields(observed, topdowns))
    for path in manifest_paths:
        manifest.write(path)
        print(f"run manifest written to {path}")
    if args.report:
        from repro.obs.report import write_report

        write_report(
            args.report, manifest,
            topdowns=_merge_topdowns(topdowns),
            timelines=timeline_collectors,
            baseline=report_baseline_manifest,
            base_label=args.report_baseline or "baseline")
        print(f"HTML report written to {args.report}")
    if args.trajectory:
        append_trajectory(manifest, args.trajectory)
        print(f"trajectory appended to {args.trajectory}")
    return 0


def run() -> int:
    """Console-script entry point; tolerant of closed output pipes."""
    try:
        return main()
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(run())
