"""Golden pin of the observed payloads, byte for byte.

One observed run per case records the stall table, the top-down slot
tree, the metrics payload (minus the fast-forward counter) and the
timeline samples at interval 200.  Every run is compared with the
committed ``obs_golden.json`` through ``json.dumps`` without
``sort_keys``, so dict key order is pinned too, once with the
fast-forward kernel on and once with the serial tick loop.

Cases: BIG, HALF+FX, LITTLE and CA on mcf and hmmer (1,500
instructions, seed 3), plus the four fuzz-jittered configs of two
``sample_case(seed=1106, ...)`` cases.

After an intended change to an observed payload, rewrite the file with::

    PYTHONPATH=src python -m tests.test_obs_golden
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core import build_core
from repro.obs import Observability, TimelineCollector, TopDownCollector
from repro.validate.fuzz import sample_case
from repro.workloads import generate_trace

GOLDEN = Path(__file__).with_name("obs_golden.json")
MODELS = ("BIG", "HALF+FX", "LITTLE", "CA")
INTERVAL = 200
TOPDOWN_FIELDS = ("slots", "width", "cycles", "unpaid_squash_debt")
SAMPLE_FIELDS = ("cycles", "committed", "stalls", "occupancy")


def _cases():
    """``label -> (model name or config, benchmark, length, seed)``."""
    cases = {}
    for bench in ("mcf", "hmmer"):
        for model in MODELS:
            cases[f"{model}/{bench}"] = (model, bench, 1500, 3)
    for index in range(2):
        case = sample_case(seed=1106, index=index, max_len=600)
        for config in case.configs:
            cases[f"{config.name}/{case.benchmark}"] = (
                config, case.benchmark, case.length, case.trace_seed)
    return cases


CASES = _cases()


@lru_cache(maxsize=None)
def _trace(bench, length, seed):
    return tuple(generate_trace(bench, length, seed))


def observed_payload(label):
    spec, bench, length, seed = CASES[label]
    timeline = TimelineCollector(interval=INTERVAL)
    topdown = TopDownCollector()
    obs = Observability(timeline=timeline, topdown=topdown)
    stats = build_core(spec, obs=obs).run(list(_trace(bench, length, seed)))
    tree = topdown.to_dict()
    metrics = stats.metrics
    del metrics["counters"]["cycles.fastforwarded"]
    return {
        "stalls": stats.stalls,
        "topdown": {key: tree[key] for key in TOPDOWN_FIELDS},
        "metrics": metrics,
        "timeline": [
            {key: getattr(sample, key) for key in SAMPLE_FIELDS}
            for sample in timeline.samples
        ],
    }


def render(doc):
    """One line per payload and per timeline sample, so a diff of the
    file names exactly the runs and intervals that moved."""
    runs = []
    for label, run in doc.items():
        lines = [f"  {json.dumps(key)}: {json.dumps(value)}"
                 for key, value in run.items() if key != "timeline"]
        samples = ",\n".join(f"   {json.dumps(sample)}"
                             for sample in run["timeline"])
        lines.append(f'  "timeline": [\n{samples}\n  ]')
        runs.append(f" {json.dumps(label)}: {{\n" + ",\n".join(lines)
                    + "\n }")
    return "{\n" + ",\n".join(runs) + "\n}\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert list(golden) == list(CASES)


@pytest.mark.parametrize("fastforward", ("on", "off"))
@pytest.mark.parametrize("label", list(CASES))
def test_observed_payload_matches_golden(golden, monkeypatch, label,
                                         fastforward):
    if fastforward == "on":
        monkeypatch.delenv("REPRO_NO_FASTFORWARD", raising=False)
    else:
        monkeypatch.setenv("REPRO_NO_FASTFORWARD", "1")
    observed = observed_payload(label)
    for key, value in observed.items():
        assert json.dumps(value) == json.dumps(golden[label][key]), key


if __name__ == "__main__":
    GOLDEN.write_text(render({label: observed_payload(label)
                              for label in CASES}))
