#!/usr/bin/env python3
"""End-to-end benchmark of the FXA reproduction.

One workload, one run (the form every other mode is built from)::

    python3 e2ebench/run.py --workload fig7-cold --seed 0 --seconds 20 \\
        --trace 0

prints a report, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The exit code is 0 only when every check passed.

Without ``--workload`` every workload runs once, each in its own
process (and, with ``--trace 1``, once untraced and once traced).
``record``, ``ab`` and ``compare`` collect and judge repeated runs; see
``compare.py`` and README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from harness import (  # noqa: E402
    PAPER_REL_IPC_HALFFX,
    REF_NOMINAL_S,
    ROOT,
    SCALES,
    SETUP_REPEATS,
    SRC,
    WORKLOADS,
    Op,
    benchmark_spec,
    sha256_of,
)

GOLDEN = HERE / "golden.json"
RUN_DIR = ROOT / ".bench_run"


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile (inclusive method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _scale(workload, ops, before: float) -> float:
    """Sample the host reference after ``ops`` and scale each of them by
    the mean of that sample and ``before``; returns the new sample."""
    after = workload.host_reference_s()
    for op in ops:
        op.scale = 2.0 * REF_NOMINAL_S / (before + after)
    return after


def measure(workload, seconds: float):
    """Set up ``SETUP_REPEATS`` times, then repeat the operation until
    the next one would overrun ``seconds``.  Returns the set-ups (as
    :class:`Op` records), the operations and the peak RSS."""
    ref = workload.host_reference_s()
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(Op(wall_s=workload.setup(), jobs=0))
        ref = _scale(workload, setups[-1:], ref)
    ops, group, rss_mb = [], [], None
    started = time.perf_counter()
    while True:
        ops.append(workload.op(len(ops)))
        group.append(ops[-1])
        if len(ops) == workload.rss_after_ops:
            rss_mb = workload.peak_rss_mb()
        typical = statistics.median(op.wall_s for op in ops)
        done = time.perf_counter() - started + typical > seconds
        if done or len(group) == workload.ref_every:
            ref, group = _scale(workload, group, ref), []
        if done:
            return setups, ops, rss_mb or workload.peak_rss_mb()


def samples_ms(workload, ops, scaled: bool = True):
    """The latency samples one run yields: served warm batches for the
    serve workloads, whole operations for the sweeps; ``scaled`` gives
    them at the reference host speed."""
    if workload.in_process:
        return [op.wall_s * 1e3 * (op.scale if scaled else 1.0)
                for op in ops]
    return [ms * (op.scale if scaled else 1.0)
            for op in ops for ms in op.warm_ms]


def traced(workload, trace_out: Path):
    """Alternate untraced and traced operations; per-layer metrics come
    from the traced ones, ``trace_overhead`` from both."""
    from tracer import (LAYER_UNITS, Tracer, layer_metrics, load_spans,
                        write_perfetto)

    parts = workload.work / "spans"
    tracer = Tracer(parts)
    workload.setup()
    workload.setup_traced(parts)
    count = workload.p["trace_ops"]
    plain, traced_ops, since = [], [], None

    def traced_op(index):
        nonlocal since
        if workload.in_process:
            tracer.install()
        try:
            with tracer.span("op", trace=f"op{index}") as root:
                since = root["start"] if since is None else since
                return workload.op(index, tracer)
        finally:
            tracer.uninstall()

    # An untimed first operation lets caches fill before the pairs.
    warmup = workload.op(0)
    ref = workload.host_reference_s()
    for index in range(1, count + 1):
        # Pairs alternate which side runs first.
        for side in ((plain, traced_ops) if index % 2
                     else (traced_ops, plain)):
            side.append(traced_op(index) if side is traced_ops
                        else workload.op(index))
            ref = _scale(workload, side[-1:], ref)
    tracer.flush()
    workload.end_traced()
    spans = load_spans(parts, since)
    layers = layer_metrics(spans, count)
    layers.update(workload.layer_extras(spans, count))
    # Each traced operation against the untraced one just before it, so
    # that host drift between pairs cancels.
    layers["trace_overhead"] = statistics.median(
        sum(samples_ms(workload, [after]))
        / sum(samples_ms(workload, [before]))
        for before, after in zip(plain, traced_ops)) - 1.0
    layers = {name: layers[name] for name in LAYER_UNITS}
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    write_perfetto(spans, trace_out)
    return [warmup] + plain + traced_ops, layers


def check(workload, scale: str, update_golden: bool) -> int:
    """Golden digest (seed 0) and serial spot-checks; returns the number
    of jobs re-simulated."""
    if workload.seed == 0:
        digest = sha256_of(workload.golden_material())
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        if update_golden:
            golden.setdefault(scale, {})[workload.name] = digest
            GOLDEN.write_text(json.dumps(golden, indent=2,
                                         sort_keys=True) + "\n")
        elif golden.get(scale, {}).get(workload.name) != digest:
            workload.problems.append(
                f"result digest {digest[:16]} does not match golden.json")
    return workload.spot_check()


def e2e_metrics(workload, setups, ops, rss_mb: float) -> dict:
    return {
        "op_p50_norm_ms": statistics.median(samples_ms(workload, ops)),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(op.wall_s * op.scale
                                     for op in setups),
    }


def report(workload, ops, setups, metrics, layers, attempted, failed,
           checked) -> None:
    """The human-readable lines above the JSON result.  Metrics in the
    JSON line are at the reference host speed; the rest is as measured
    on this host."""
    def row(name, value, unit, note=""):
        print(f"  {name:28s} {value:>14.6g} {unit:9s} {note}")

    window = sum(op.wall_s for op in ops)
    print(f"== {workload.name}  seed {workload.seed}  "
          f"({len(ops)} ops, {window:.2f} s measured) ==")
    if metrics is not None:
        raw = samples_ms(workload, ops, scaled=False)
        setup_raw = [op.wall_s for op in setups]
        row("setup_s", metrics["setup_s"], "s",
            f"median of {len(setups)} at reference speed; as measured "
            f"{statistics.median(setup_raw):.6g} s")
        row("op_p50_norm_ms", metrics["op_p50_norm_ms"], "ms",
            f"median operation at reference speed, n={len(raw)}")
        if workload.in_process:
            row("wall_s", statistics.median(raw) / 1e3, "s",
                f"median sweep as measured; max {max(raw) / 1e3:.6g} s")
            row("sim_insts_per_s", sum(op.insts for op in ops) / window,
                "insts/s", "committed instructions per host second")
        else:
            row("warm_p50_ms", statistics.median(raw), "ms",
                "median warm batch as measured")
            row("warm_p90_ms", percentile(raw, 0.9), "ms")
            cold = [ms for op in ops for ms in op.cold_ms]
            if cold:
                row("cold_p50_ms", statistics.median(cold), "ms",
                    f"p90 {percentile(cold, 0.9):.6g} ms, n={len(cold)}")
            row("served_jobs_per_s", sum(op.jobs for op in ops) / window,
                "jobs/s", "over all clients")
        row("host_ref_ms", 1e3 * REF_NOMINAL_S / statistics.median(
            op.scale for op in ops), "ms",
            f"host reference loop; {1e3 * REF_NOMINAL_S:g} ms is "
            f"reference speed")
        row("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    if layers is not None:
        from tracer import LAYER_UNITS

        for name, value in layers.items():
            row(name, value, LAYER_UNITS.get(name, ""),
                "per op" if LAYER_UNITS.get(name) in ("s", "count")
                else "")
    row("failed_frac", failed / attempted, "", f"{failed} of {attempted}")
    if "rel_ipc_halffx" in workload.extras:
        value = workload.extras["rel_ipc_halffx"]
        row("rel_ipc_halffx", value, "",
            f"paper {PAPER_REL_IPC_HALFFX} "
            f"(error {100 * (value / PAPER_REL_IPC_HALFFX - 1):+.1f}%)")
    print(f"  checks: {checked} serial spot-check(s)"
          + ("; golden digest checked" if workload.seed == 0 else ""))
    for problem in workload.problems + workload.request_errors:
        print(f"  PROBLEM: {problem}")


def run_one(args) -> int:
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"e2ebench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = RUN_DIR / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # Everything the run and its children write stays in the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    workload = WORKLOADS[args.workload](
        args.seed, SCALES[args.scale][args.workload], work)
    metrics = layers = None
    try:
        if args.trace:
            out = args.trace_out or (
                RUN_DIR / "traces" / f"{args.workload}-seed{args.seed}.json")
            ops, layers = traced(workload, Path(out))
            setups = []
        else:
            setups, ops, rss_mb = measure(workload, args.seconds)
            metrics = e2e_metrics(workload, setups, ops, rss_mb)
        checked = check(workload, args.scale, args.update_golden)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(op.jobs for op in ops) + checked
    failed = sum(op.failed for op in ops) + len(workload.problems)
    report(workload, ops, setups, metrics, layers, attempted, failed,
           checked)
    spec = benchmark_spec()
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layers
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = metrics
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload once, each in its own process."""
    ok = True
    for trace in ([0, 1] if args.trace else [0]):
        for name in WORKLOADS:
            result, output = compare.run_benchmark(
                ROOT, name, args.seed, args.seconds, trace, args.scale)
            print(output, end="", flush=True)
            ok = ok and result is not None and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in compare.COMMANDS:
        return compare.main(argv)
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(
        prog="e2ebench/run.py",
        description="End-to-end benchmark: run one workload (or all) and "
                    "print its metrics; subcommands: "
                    + ", ".join(compare.COMMANDS))
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run only this workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: generates the inputs")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measurement window of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="Perfetto JSON of the traced run (default "
                             ".bench_run/traces/WORKLOAD-seedS.json)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="operation size; smoke is the self-test's")
    parser.add_argument("--update-golden", action="store_true",
                        help="with seed 0: record the result digest in "
                             "golden.json instead of checking it")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
