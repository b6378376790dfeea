"""Repeated runs and their verdicts: ``record``, ``ab`` and ``compare``.

    python3 e2ebench/run.py record OUT.json --runs 10 [--set NAME]
    python3 e2ebench/run.py ab PARENT_ROOT CHANGE_ROOT --runs 10 --out DIR
    python3 e2ebench/run.py compare PARENT.json[:SET] CHANGE.json[:SET]

A results file holds named *sets*; a set maps each workload to the
result lines of its runs, one per seed.  ``ab`` alternates the two
checkouts run by run (and which goes first), measuring both with this
checkout's benchmark code.  ``compare`` labels every end-to-end metric
of every workload with the rules of README.md: improved, unchanged,
regressed, or unresolved when the parent's own spread is wider than the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMANDS = ("record", "ab", "compare")
#: Share of pairs the change must win to count as improved.
WIN_SHARE = 0.9
#: Fewest pairs a gain may rest on.
MIN_PAIRS = 10
EXIT_REGRESSED = 3


def host() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "platform": platform.platform()}


def run_benchmark(root, workload: str, seed: int, seconds: float,
                  trace: int, scale: str = "full"):
    """One run of this benchmark against the ``src`` of checkout
    ``root``; returns (result line or None, printed output)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--scale", scale]
    env = dict(os.environ, E2EBENCH_ROOT=str(Path(root).resolve()))
    proc = subprocess.run(command, cwd=root, env=env, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, proc.stdout + proc.stderr
    result["seed"] = seed
    host_ref = re.search(r"^\s*host_ref_ms\s+(\S+)", proc.stdout, re.M)
    if host_ref:
        result["host_ref_ms"] = float(host_ref.group(1))
    return result, proc.stdout + (proc.stderr if proc.returncode else "")


def save_set(path, name: str, runs: dict, seconds: float,
             trace: int) -> None:
    path = Path(path)
    data = json.loads(path.read_text()) if path.exists() else {}
    data["host"] = host()
    data.setdefault("sets", {})[name] = {
        "seconds": seconds, "trace": trace, "runs": runs}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def load_set(spec: str) -> dict:
    """``FILE`` (holding one set) or ``FILE:SET``."""
    path, _, name = spec.partition(":")
    sets = json.loads(Path(path).read_text())["sets"]
    if not name:
        if len(sets) != 1:
            raise SystemExit(f"{path} holds sets {sorted(sets)}; "
                             f"name one as {path}:SET")
        name = next(iter(sets))
    return sets[name]["runs"]


def verdict(parent, change, better: str, bound: float) -> str:
    """The label one metric earns by the rules in README.md."""
    sign = 1.0 if better == "higher" else -1.0
    base = statistics.median(parent)
    q1, _, q3 = (statistics.quantiles(parent, n=4) if len(parent) > 1
                 else (base, base, base))
    gain = sign * (statistics.median(change) - base)
    if base and (q3 - q1) / abs(base) > bound:
        every = all(sign * (c - p) > 0 for c in change for p in parent)
        return "improved" if every else "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) \
            and gain > q3 - q1:
        return "improved"
    if base and -gain / abs(base) > bound:
        return "regressed"
    return "unchanged"


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def host_moved(before, after) -> bool:
    """Whether the host reference loop read differently on the two
    sides: their medians differ by more than the parent's interquartile
    range.  Normalized times of such a pair are not comparable."""
    p = [r.get("host_ref_ms") for r in before]
    c = [r.get("host_ref_ms") for r in after]
    if None in p + c or len(p) < 2:
        return False
    q1, _, q3 = statistics.quantiles(p, n=4)
    return abs(statistics.median(c) - statistics.median(p)) > q3 - q1


def compare_sets(parent: dict, change: dict, spec: dict) -> int:
    metrics = spec["end_to_end"]
    print(f"{'workload':14s} {'metric':12s} {'parent p50':>12s} "
          f"{'change p50':>12s} {'delta':>8s} {'spread':>15s} "
          f"{'bound':>6s}  verdict")
    regressed = broken = 0
    for workload in sorted(set(parent) | set(change)):
        runs_p = parent.get(workload, [])
        runs_c = change.get(workload, [])
        bad = sum(1 for r in runs_c if not r or not r["correct"])
        if bad:
            broken += 1
            print(f"{workload:14s} {bad} change run(s) failed or "
                  f"were incorrect")
        # Run i of one side pairs with run i of the other (same seed,
        # same round); a pair goes when either of its runs failed.
        pairs = [(p, c) for p, c in zip(runs_p, runs_c) if p and c]
        dropped = max(len(runs_p), len(runs_c)) - len(pairs)
        if dropped:
            print(f"{workload:14s} {dropped} pair(s) dropped: a run "
                  f"failed or has no partner")
        if not pairs:
            continue
        before = [p for p, _ in pairs]
        after = [c for _, c in pairs]
        moved = host_moved(before, after)
        if moved:
            print(f"{workload:14s} host reference moved: parent "
                  f"{statistics.median(r['host_ref_ms'] for r in before):.4g}"
                  f" ms, change "
                  f"{statistics.median(r['host_ref_ms'] for r in after):.4g}"
                  f" ms; times are unresolved unless regressed")
        for metric in metrics:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in before]
            c = [r["metrics"][name]["value"] for r in after]
            label = verdict(p, c, metric["better"], metric["bound"])
            if moved and metric["unit"] in ("s", "ms") and \
                    label != "regressed":
                label = "unresolved"
            regressed += label == "regressed"
            base = statistics.median(p)
            delta = (statistics.median(c) - base) / base if base else 0.0
            print(f"{workload:14s} {name:12s} {base:12.5g} "
                  f"{statistics.median(c):12.5g} {delta:+8.1%} "
                  f"{spread(p):6.1%} / {spread(c):6.1%} "
                  f"{metric['bound']:6.0%}  {label}")
    return EXIT_REGRESSED if regressed or broken else 0


def main(argv) -> int:
    from harness import WORKLOADS, benchmark_spec

    spec = benchmark_spec()
    parser = argparse.ArgumentParser(prog="e2ebench/run.py")
    sub = parser.add_subparsers(dest="command", required=True)
    record = sub.add_parser("record", help="run every workload N times, "
                                           "one seed per round")
    record.add_argument("out", help="results file (sets are merged in)")
    record.add_argument("--set", default="default", help="set name")
    ab = sub.add_parser("ab", help="alternate two checkouts run by run, "
                                   "then compare them")
    ab.add_argument("parent_root")
    ab.add_argument("change_root")
    ab.add_argument("--out", required=True, metavar="DIR",
                    help="writes DIR/parent.json and DIR/change.json")
    for command in (record, ab):
        command.add_argument("--runs", type=int, default=10)
        command.add_argument("--first-seed", type=int, default=0)
        command.add_argument("--seconds", type=float,
                             default=spec["run_seconds"])
        command.add_argument("--workload", action="append",
                             choices=sorted(WORKLOADS),
                             help="repeatable; default every workload")
    record.add_argument("--trace", type=int, choices=(0, 1), default=0)
    judge = sub.add_parser("compare", help="label each metric")
    judge.add_argument("parent", help="FILE or FILE:SET")
    judge.add_argument("change", help="FILE or FILE:SET")
    args = parser.parse_args(argv)

    if args.command == "compare":
        return compare_sets(load_set(args.parent), load_set(args.change),
                            spec)
    workloads = args.workload or list(WORKLOADS)
    if args.command == "record":
        sides = {args.out: str(HERE.parent)}
        trace = args.trace
    else:
        out = Path(args.out)
        sides = {out / "parent.json": args.parent_root,
                 out / "change.json": args.change_root}
        trace = 0
    runs = {path: {} for path in sides}
    order = list(sides)
    for index in range(args.runs):
        seed = args.first_seed + index
        for workload in workloads:
            for path in (order if index % 2 == 0 else order[::-1]):
                started = time.monotonic()
                result, output = run_benchmark(
                    sides[path], workload, seed, args.seconds, trace)
                runs[path].setdefault(workload, []).append(result)
                status = ("FAILED" if result is None
                          else "ok" if result["correct"] else "INCORRECT")
                print(f"[{index + 1}/{args.runs}] {workload} seed {seed} "
                      f"{Path(sides[path]).name}: {status} in "
                      f"{time.monotonic() - started:.1f} s", flush=True)
                if result is None:
                    print(output, file=sys.stderr)
    for path in sides:
        save_set(path, args.set if args.command == "record" else "runs",
                 runs[path], args.seconds, trace)
    if args.command == "ab":
        return compare_sets(runs[order[0]], runs[order[1]], spec)
    return 0
