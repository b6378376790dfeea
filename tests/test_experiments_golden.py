"""Golden pin of every simulating experiment's payload, byte for byte.

Each case calls one experiment module's ``run()`` on hmmer, libquantum,
mcf and lbm (500 measured instructions after 2,000 of warm-up) from an
empty memo, at one worker and with no disk cache.  Every module runs
once clean and once with every lbm job crashing (``crash:lbm``), which
takes the gap paths: figure 7 reports lbm's cells as ``None`` and the
other modules drop lbm from every aggregate.

Payloads are compared as ``json.dumps(..., sort_keys=True)`` text, not
as loaded dicts: a NaN row (headline's libquantum gain on a subset
without libquantum) is not equal to itself.

After an intended change to an experiment's results, rewrite the file
with::

    PYTHONPATH=src python -m tests.test_experiments_golden
"""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    figure7,
    figure8,
    figure10,
    figure11,
    figure12,
    figure13,
    headline,
    related_work,
    reno,
    runner,
    sensitivity,
)
from repro.experiments.pool import FaultSpec

GOLDEN = Path(__file__).with_name("experiments_golden.json")
BENCHMARKS = ("hmmer", "libquantum", "mcf", "lbm")
SMALL = dict(measure=500, warmup=2000)
MODULES = {
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
FAULTS = {"clean": None, "crash:lbm": FaultSpec("crash", "lbm")}
CASES = [f"{name}/{fault}" for fault in FAULTS for name in MODULES]


def payload(label):
    """One module's ``run()`` payload, simulated from an empty memo."""
    name, fault = label.split("/", 1)
    runner.clear_cache()
    try:
        with runner.configured(runner.SweepSettings(),
                               injector=FAULTS[fault]):
            return MODULES[name].run(benchmarks=list(BENCHMARKS), **SMALL)
    finally:
        runner.clear_cache()


def text(doc):
    return json.dumps(doc, sort_keys=True)


def render(doc):
    """One line per case, so a diff of the file names the payloads that
    moved."""
    lines = [f" {json.dumps(label)}: {text(payload)}"
             for label, payload in doc.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert list(golden) == CASES


@pytest.mark.parametrize("label", CASES)
def test_payload_matches_golden(golden, label):
    assert text(payload(label)) == text(golden[label])


if __name__ == "__main__":
    GOLDEN.write_text(render({label: payload(label) for label in CASES}))
