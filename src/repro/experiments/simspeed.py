"""Simulator-throughput telemetry and the fast-forward perf guard.

The event-driven fast-forward kernel (:mod:`repro.core.kernel`) and the
flat in-flight window were sold on a multiple of raw simulation speed.
This module makes that claim a measured, guarded number instead of a
commit-message anecdote:

* ``python -m repro.experiments.simspeed --json BENCH_simspeed.json``
  measures simulated-instructions-per-second for every core family on
  the telemetry suite and appends one entry (per-pair rates, speedups
  vs the pinned seed rates, per-family aggregates, geomeans, and each
  family's host time per instruction relative to BIG) to the same
  style of JSON history that ``--trajectory`` keeps for IPC and
  energy.
* ``--guard MIN`` additionally re-measures the recorded pre-kernel seed
  commit (:data:`SEED_COMMIT`) in a throwaway ``git worktree`` —
  back-to-back with the current tree, in the same process environment —
  and exits :data:`EXIT_SLOWDOWN` when the geomean family speedup on
  the guard suite falls below ``MIN``.  Measuring the baseline live
  makes the guard machine-independent: absolute rates swing by tens of
  percent across hosts and CI runners, ratios of back-to-back runs do
  not.

Measurement protocol (the pinned numbers below use exactly this):
every trace is memoised before any clock starts, each (model,
benchmark) pair simulates :data:`DEFAULT_MEASURE` instructions after a
:data:`DEFAULT_WARMUP`-instruction functional warm-up (timed on every
tree, even one that memoises warmed states), and the reported
rate is the best of :data:`DEFAULT_ROUNDS` rounds (best-of-N discards
scheduler noise; means punish the faster tree more).  Both trees are
always measured by the same interpreter via a subprocess with
``PYTHONPATH`` pointed at the tree under test, so import caching or
in-process warm-up cannot favour either side.

The guard suite is the memory-bound column of the telemetry suite
(``mcf`` on all four families): long miss shadows are precisely what
the event-driven kernel exists to skip, so that is where the win is
guarded.  The full-suite geomean (which mixes compute-bound benchmarks
whose ticks cannot be skipped) is reported alongside, unguarded.

Escape hatch: ``REPRO_NO_FASTFORWARD=1`` disables the kernel at core
construction (see EXPERIMENTS.md); CI runs one validation sweep under
it so the serial loop stays correct, not just present.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Exit status of a ``--guard`` breach (3 is the manifest-diff
#: regression exit; keep them distinguishable for CI annotations).
EXIT_SLOWDOWN = 4

#: The commit the speedup is measured against: the tree immediately
#: before the event-driven kernel and the flat-window scheduler landed.
SEED_COMMIT = "30ca0eb905b62bff3f049ae60145456a25740871"

#: Core families × benchmarks of the telemetry suite.  Two compute-
#: bound benchmarks (hmmer, libquantum) and two memory-bound ones
#: (mcf, milc) per family keep both the skippable and the unskippable
#: cost visible.
SUITE_MODELS: Tuple[str, ...] = ("BIG", "HALF+FX", "LITTLE", "CA")
SUITE_BENCHMARKS: Tuple[str, ...] = ("hmmer", "mcf", "libquantum",
                                     "milc")

#: Benchmarks the ``--guard`` geomean is computed over (memory-bound:
#: the kernel's target workload).
GUARD_BENCHMARKS: Tuple[str, ...] = ("mcf",)

DEFAULT_MEASURE = 20_000
DEFAULT_WARMUP = 4_000
DEFAULT_ROUNDS = 3

#: Seed-tree rates (simulated insts/second) recorded from
#: :data:`SEED_COMMIT` under the exact protocol above, measured
#: back-to-back with the kernel tree on the development host.  These
#: anchor the history entries' headline speedup when no live baseline
#: is measured; ``--guard`` never trusts them (it re-measures).
SEED_RATES: Dict[str, float] = {
    "BIG/hmmer": 49753.0,
    "BIG/mcf": 23927.0,
    "BIG/libquantum": 45517.0,
    "BIG/milc": 37709.0,
    "HALF+FX/hmmer": 38171.0,
    "HALF+FX/mcf": 18188.0,
    "HALF+FX/libquantum": 45467.0,
    "HALF+FX/milc": 27173.0,
    "LITTLE/hmmer": 101650.0,
    "LITTLE/mcf": 21556.0,
    "LITTLE/libquantum": 138413.0,
    "LITTLE/milc": 60502.0,
    "CA/hmmer": 38616.0,
    "CA/mcf": 15873.0,
    "CA/libquantum": 33661.0,
    "CA/milc": 28168.0,
}

#: Stand-alone measurement worker run via ``python -c`` against an
#: arbitrary tree (the seed commit predates this module, so the probe
#: cannot live inside ``repro``).  Reads the job spec as its first
#: stdin line, memoises every trace, then runs one full-suite round
#: per subsequent ``go`` line, printing one ``{pair: insts_per_second}``
#: JSON line each time.  Keeping the worker alive between rounds lets
#: the parent interleave rounds across two trees, so host-load drift
#: hits both sides of a speedup ratio equally.  Every timed call runs
#: one functional warm-up on every tree: the warmed states a tree
#: memoises (in trace-memo entries that have ``warm_states``) are
#: dropped before each call.
_MEASURE_SCRIPT = r"""
import json, sys, time
spec = json.loads(sys.stdin.readline())
from repro.core import model_config
from repro.experiments import runner
from repro.experiments.runner import simulate
measure = spec["measure"]
warmup = spec["warmup"]
pairs = [tuple(p) for p in spec["pairs"]]
for _model, bench in pairs:  # memoise every trace before timing
    simulate(model_config("LITTLE"), bench, measure=measure,
             warmup=warmup, seed=0)
configs = {model: model_config(model) for model, _bench in pairs}
for line in sys.stdin:
    if line.strip() != "go":
        break
    rates = {}
    for model, bench in pairs:
        for entry in runner._TRACE_MEMO.values():
            getattr(entry, "warm_states", {}).clear()
        started = time.perf_counter()
        run = simulate(configs[model], bench, measure=measure,
                       warmup=warmup, seed=0)
        elapsed = time.perf_counter() - started
        rates[model + "/" + bench] = run.stats.committed / elapsed
    print(json.dumps(rates), flush=True)
"""


def suite_pairs(
    models: Sequence[str] = SUITE_MODELS,
    benchmarks: Sequence[str] = SUITE_BENCHMARKS,
) -> List[Tuple[str, str]]:
    return [(m, b) for m in models for b in benchmarks]


class _Worker:
    """One live measurement subprocess pinned to a tree."""

    def __init__(self, src_dir: str, spec: Dict):
        self.src_dir = src_dir
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        env.pop("REPRO_NO_FASTFORWARD", None)  # measure what ships
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _MEASURE_SCRIPT],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env,
        )
        self.proc.stdin.write(json.dumps(spec) + "\n")
        self.proc.stdin.flush()

    def round(self) -> Dict[str, float]:
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"measurement subprocess for {self.src_dir} died "
                f"(exit {self.proc.poll()})")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except Exception:
            self.proc.kill()


def measure_trees(src_dirs: Sequence[str],
                  pairs: Sequence[Tuple[str, str]],
                  measure: int = DEFAULT_MEASURE,
                  warmup: int = DEFAULT_WARMUP,
                  rounds: int = DEFAULT_ROUNDS,
                  ) -> List[Dict[str, float]]:
    """Measure ``{model/bench: insts_per_second}`` for each tree (by
    its ``src`` directory), interleaving rounds across the trees.

    Round ``r`` of every tree runs before round ``r+1`` of any tree,
    so a host-load swing lands on all trees near-symmetrically instead
    of biasing whichever tree was measured last; per-pair best-of-
    ``rounds`` then discards the slow outliers.
    """
    workers = [_Worker(d, {"pairs": [list(p) for p in pairs],
                           "measure": measure, "warmup": warmup})
               for d in src_dirs]
    try:
        best: List[Dict[str, float]] = [{} for _ in workers]
        for _ in range(rounds):
            for index, worker in enumerate(workers):
                for pair, rate in worker.round().items():
                    if rate > best[index].get(pair, 0.0):
                        best[index][pair] = rate
        return best
    finally:
        for worker in workers:
            worker.close()


def measure_tree(src_dir: str, pairs: Sequence[Tuple[str, str]],
                 measure: int = DEFAULT_MEASURE,
                 warmup: int = DEFAULT_WARMUP,
                 rounds: int = DEFAULT_ROUNDS) -> Dict[str, float]:
    """Single-tree convenience wrapper over :func:`measure_trees`."""
    return measure_trees([src_dir], pairs, measure, warmup, rounds)[0]


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def pair_speedups(current: Dict[str, float],
                  baseline: Dict[str, float]) -> Dict[str, float]:
    return {
        pair: current[pair] / baseline[pair]
        for pair in current
        if baseline.get(pair)
    }


def family_speedups(
    current: Dict[str, float], baseline: Dict[str, float],
    benchmarks: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """Aggregate per-family speedups: total instructions over total
    time (the harmonic combination — each pair simulates the same
    instruction count, so summed reciprocal rates are summed times)."""
    times: Dict[str, List[float]] = {}
    for pair, rate in current.items():
        model, bench = pair.split("/", 1)
        if benchmarks is not None and bench not in benchmarks:
            continue
        base = baseline.get(pair)
        if not base:
            continue
        row = times.setdefault(model, [0.0, 0.0])
        row[0] += 1.0 / base
        row[1] += 1.0 / rate
    return {
        model: base_time / cur_time
        for model, (base_time, cur_time) in sorted(times.items())
        if cur_time > 0
    }


def costs_vs_big(rates: Dict[str, float]) -> Dict[str, float]:
    """Each family's host time per simulated instruction relative to
    BIG's, on the benchmarks both ran: the inverse of
    :func:`family_speedups` against BIG's rates on the same benchmarks,
    so the same harmonic combination applies."""
    big_rates = {}
    for pair in rates:
        big = rates.get("BIG/" + pair.split("/", 1)[1])
        if big:
            big_rates[pair] = big
    return {model: 1.0 / speedup for model, speedup
            in family_speedups(rates, big_rates).items()}


class seed_worktree:
    """Context manager: check ``commit`` out as a throwaway git
    worktree and yield its path (removed on exit)."""

    def __init__(self, repo_root: str, commit: str = SEED_COMMIT):
        self.repo_root = repo_root
        self.commit = commit
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self.path: Optional[str] = None

    def __enter__(self) -> str:
        self._tmp = tempfile.TemporaryDirectory(prefix="simspeed-seed-")
        self.path = os.path.join(self._tmp.name, "tree")
        proc = subprocess.run(
            ["git", "worktree", "add", "--detach", "--force",
             self.path, self.commit],
            cwd=self.repo_root, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            self._tmp.cleanup()
            raise RuntimeError(
                f"cannot check out seed commit {self.commit[:12]}: "
                f"{proc.stderr.strip()} (shallow clone? fetch with "
                f"full history to run the live guard)")
        return self.path

    def __exit__(self, *_exc) -> None:
        subprocess.run(
            ["git", "worktree", "remove", "--force", self.path],
            cwd=self.repo_root, capture_output=True, text=True,
        )
        if self._tmp is not None:
            self._tmp.cleanup()


def _repo_root() -> str:
    """The repository this installed ``repro`` package came from."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__))))


def build_entry(rates: Dict[str, float],
                baseline: Dict[str, float],
                baseline_kind: str,
                measure: int, warmup: int, rounds: int,
                wall_seconds: float) -> Dict:
    """One BENCH_simspeed.json history entry (same provenance fields
    as the ``--trajectory`` history so both plot the same way)."""
    import platform

    import repro
    from repro.experiments.diskcache import code_version
    from repro.experiments.runner import timestamp

    pairs = pair_speedups(rates, baseline)
    families = family_speedups(rates, baseline)
    guard_families = family_speedups(rates, baseline,
                                     benchmarks=GUARD_BENCHMARKS)
    return {
        "finished_at": timestamp(time.time()),
        "code_version": code_version(),
        "repro_version": repro.__version__,
        "host": platform.node(),
        "measure": measure,
        "warmup": warmup,
        "rounds": rounds,
        "wall_seconds": wall_seconds,
        "baseline": baseline_kind,
        "rates": {k: round(v, 1) for k, v in sorted(rates.items())},
        "baseline_rates": {k: round(v, 1)
                           for k, v in sorted(baseline.items())},
        "speedups": {k: round(v, 4) for k, v in sorted(pairs.items())},
        "family_speedups": {k: round(v, 4)
                            for k, v in families.items()},
        "cost_vs_big": {k: round(v, 4)
                        for k, v in costs_vs_big(rates).items()},
        "geomean_speedup": round(geomean(families.values()), 4),
        "guard_benchmarks": list(GUARD_BENCHMARKS),
        "guard_family_speedups": {k: round(v, 4)
                                  for k, v in guard_families.items()},
        "guard_geomean_speedup": round(geomean(
            guard_families.values()), 4),
    }


def format_report(entry: Dict) -> str:
    lines = [
        f"simulator throughput ({entry['measure']} insts/run, "
        f"best of {entry['rounds']}; baseline: {entry['baseline']})",
        f"{'pair':>20s} {'insts/s':>10s} {'seed':>10s} {'speedup':>8s}",
    ]
    for pair, rate in entry["rates"].items():
        base = entry["baseline_rates"].get(pair, 0.0)
        speedup = entry["speedups"].get(pair, 0.0)
        lines.append(f"{pair:>20s} {rate:10.0f} {base:10.0f} "
                     f"{speedup:7.2f}x")
    fams = "  ".join(f"{m} {s:.2f}x"
                     for m, s in entry["family_speedups"].items())
    lines.append(f"family aggregates: {fams}")
    costs = "  ".join(f"{m} {c:.2f}x"
                      for m, c in entry["cost_vs_big"].items())
    lines.append(f"host time per instruction vs BIG: {costs}")
    lines.append(
        f"geomean speedup: {entry['geomean_speedup']:.2f}x (full "
        f"suite), {entry['guard_geomean_speedup']:.2f}x (guard suite: "
        f"{', '.join(entry['guard_benchmarks'])})")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.simspeed",
        description="Measure simulated-instructions-per-second and "
                    "guard the fast-forward kernel's speedup.")
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="Append the measurement entry to this JSON history "
             "(e.g. BENCH_simspeed.json).")
    parser.add_argument(
        "--guard", type=float, default=None, metavar="MIN",
        help="Re-measure the recorded seed commit live (git worktree) "
             f"and exit {EXIT_SLOWDOWN} if the guard-suite geomean "
             "family speedup is below MIN.")
    parser.add_argument(
        "--pinned", action="store_true",
        help="Use the pinned seed rates as the --guard baseline "
             "instead of a live seed checkout (for trees without git "
             "history; machine-dependent, prefer the default).")
    parser.add_argument("--measure", type=int, default=DEFAULT_MEASURE,
                        help=f"Instructions per timed run "
                             f"(default {DEFAULT_MEASURE}).")
    parser.add_argument("--warmup", type=int, default=DEFAULT_WARMUP,
                        help=f"Functional warm-up instructions "
                             f"(default {DEFAULT_WARMUP}).")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help=f"Timed rounds per pair; the best one "
                             f"counts (default {DEFAULT_ROUNDS}).")
    parser.add_argument("--seed-commit", default=SEED_COMMIT,
                        help="Baseline commit for the live guard.")
    args = parser.parse_args(argv)
    if args.measure < 1 or args.warmup < 0 or args.rounds < 1:
        parser.error("--measure/--rounds must be >= 1, --warmup >= 0")
    if args.guard is not None and args.guard <= 0:
        parser.error("--guard must be positive")

    pairs = suite_pairs()
    root = _repo_root()
    started = time.time()
    live_baseline: Optional[Dict[str, float]] = None
    if args.guard is not None and not args.pinned:
        # Both trees measured by live workers in interleaved rounds:
        # host-load drift lands on seed and current symmetrically, so
        # the speedup ratio stays stable even on a busy machine.
        with seed_worktree(root, args.seed_commit) as seed_path:
            live_baseline, rates = measure_trees(
                [os.path.join(seed_path, "src"),
                 os.path.join(root, "src")],
                pairs, args.measure, args.warmup, args.rounds)
    else:
        rates = measure_tree(os.path.join(root, "src"), pairs,
                             args.measure, args.warmup, args.rounds)
    baseline = live_baseline if live_baseline is not None else SEED_RATES
    baseline_kind = (f"live:{args.seed_commit[:12]}"
                     if live_baseline is not None else "pinned")
    entry = build_entry(rates, baseline, baseline_kind,
                        args.measure, args.warmup, args.rounds,
                        time.time() - started)
    print(format_report(entry))
    if args.json:
        from repro.obs.diffrun import append_history_entry

        append_history_entry(entry, args.json)
        print(f"simspeed entry appended to {args.json}")
    if args.guard is not None:
        achieved = entry["guard_geomean_speedup"]
        if achieved < args.guard:
            print(f"SIMSPEED GUARD FAILED: guard-suite geomean "
                  f"{achieved:.2f}x < required {args.guard:.2f}x "
                  f"(baseline {baseline_kind})")
            return EXIT_SLOWDOWN
        print(f"simspeed guard OK: {achieved:.2f}x >= "
              f"{args.guard:.2f}x (baseline {baseline_kind})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
