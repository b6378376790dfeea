"""Smoke self-test of the end-to-end benchmark (outside tier-1).

    python -m pytest e2ebench/test_e2e.py -q

Runs every workload at ``--scale smoke`` once untraced and twice traced
(about a minute on two cores) and checks that every metric of
BENCHMARK.json is printed with its unit, that the traced spans nest and
their self times fit inside them, and that traced counts repeat exactly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import WORKLOADS, benchmark_spec  # noqa: E402

SPEC = benchmark_spec()
#: Slack for microsecond floats rebuilt from perf_counter seconds.
EPSILON_US = 0.01


def _run(workload: str, trace: int, trace_out: Path = None) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seed", "0", "--seconds", "1", "--scale",
               "smoke", "--trace", str(trace)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    proc = subprocess.run(command, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    results = {}
    for workload in WORKLOADS:
        results[workload] = {
            "plain": _run(workload, 0),
            "traced": [_run(workload, 1, out / f"{workload}-{k}.json")
                       for k in range(2)],
            "traces": [out / f"{workload}-{k}.json" for k in range(2)],
        }
    return results


def _expect_metrics(result: dict, declared: list) -> None:
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(runs, workload):
    _expect_metrics(runs[workload]["plain"], SPEC["end_to_end"])
    for traced in runs[workload]["traced"]:
        _expect_metrics(traced, SPEC["per_layer"])
    for metric in runs[workload]["plain"]["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_spans_nest_and_self_time_fits(runs, workload):
    for path in runs[workload]["traces"]:
        events = [e for e in json.loads(path.read_text())["traceEvents"]
                  if e["ph"] == "X"]
        assert events
        by_id = {e["args"]["span_id"]: e for e in events}
        for event in events:
            args = event["args"]
            assert -EPSILON_US <= args["self_us"] <= event["dur"] + EPSILON_US
            parent = by_id.get(args["parent"]) if args["parent"] else None
            if args["parent"]:
                assert parent is not None, event["name"]
                assert event["ts"] >= parent["ts"] - EPSILON_US
                assert (event["ts"] + event["dur"]
                        <= parent["ts"] + parent["dur"] + EPSILON_US)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_exactly(runs, workload):
    first, second = (run["metrics"] for run in runs[workload]["traced"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    counts += ["workloads.trace_reuse", "diskcache.hit_ratio"]
    assert {name: first[name] for name in counts} == {
        name: second[name] for name in counts}
