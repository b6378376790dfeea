"""Golden pin of every core family's results, byte for byte.

Every case runs a core unobserved and compares ``CoreStats.to_dict()``
(event counters included) with the committed ``fxa_golden.json``
through ``json.dumps`` without ``sort_keys``, so key order is pinned
too, once with the fast-forward kernel on and once with the serial tick
loop.

Cases:

* BIG+FX and HALF+FX on mcf, hmmer, libquantum and soplex (1,500
  instructions, seed 3).  soplex replays a memory-order violation, so
  the path that squashes entries still inside the IXU pipe is covered.
* HALF+FX variants on hmmer and soplex: one-stage, two-by-two and
  six-stage IXUs (the ends of figure 12's depth range), the full and
  the one-stage bypass network, no IXU memory ops, no IXU branches,
  and a single shared PRF read port.
* BIG, HALF, LITTLE and CA on the same four benchmarks, so the
  out-of-order, in-order and clustered cores that share FXA's front
  end are pinned alongside it.
* All four configs of ``sample_case(seed, 0|1)`` for three fuzz seeds:
  in-order, out-of-order and clustered first, FXA last.

After an intended change to any family's results, rewrite the file
with::

    PYTHONPATH=src python -m tests.test_fxa_golden
"""

import json
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core import build_core
from repro.core.presets import (
    PAPER_IXU,
    big_fx_config,
    half_fx_config,
    model_config,
)
from repro.validate.fuzz import sample_case
from repro.workloads import generate_trace

GOLDEN = Path(__file__).with_name("fxa_golden.json")
BENCHMARKS = ("mcf", "hmmer", "libquantum", "soplex")
VARIANT_BENCHMARKS = ("hmmer", "soplex")
FUZZ_SEEDS = (7, 1106, 2024)
#: The presets of the families without an IXU.
OTHER_MODELS = ("BIG", "HALF", "LITTLE", "CA")
#: ``FuzzCase.configs`` positions: in-order, out-of-order, clustered,
#: then FXA.
FUZZ_CONFIGS = (0, 1, 3, 2)


def _variants():
    """``name -> HALF+FX config`` for the IXU and port variants."""
    half_fx = half_fx_config()
    ixu = {
        "stages=1": replace(PAPER_IXU, stage_fus=(1,)),
        "stages=2x2": replace(PAPER_IXU, stage_fus=(2, 2)),
        "stages=1x6": replace(PAPER_IXU, stage_fus=(1,) * 6),
        "bypass=full": replace(PAPER_IXU, bypass_stage_limit=None),
        "bypass=1": replace(PAPER_IXU, bypass_stage_limit=1),
        "no-mem": replace(PAPER_IXU, execute_mem_ops=False),
        "no-branch": replace(PAPER_IXU, execute_branches=False),
    }
    variants = {name: half_fx_config(config) for name, config in ixu.items()}
    variants["ports=1"] = replace(half_fx, prf_read_ports=1)
    return variants


def _cases():
    """``label -> (config, benchmark, length, seed)``."""
    cases = {}
    for config in (big_fx_config(), half_fx_config()):
        for bench in BENCHMARKS:
            cases[f"{config.name}/{bench}"] = (config, bench, 1500, 3)
    for name, config in _variants().items():
        for bench in VARIANT_BENCHMARKS:
            cases[f"HALF+FX[{name}]/{bench}"] = (config, bench, 1500, 3)
    for name in OTHER_MODELS:
        for bench in BENCHMARKS:
            cases[f"{name}/{bench}"] = (model_config(name), bench, 1500, 3)
    fuzz = [(seed, sample_case(seed=seed, index=index))
            for seed in FUZZ_SEEDS for index in range(2)]
    for position in FUZZ_CONFIGS:
        for seed, case in fuzz:
            config = case.configs[position]
            cases[f"{seed}:{config.name}/{case.benchmark}"] = (
                config, case.benchmark, case.length, case.trace_seed)
    return cases


CASES = _cases()


@lru_cache(maxsize=None)
def _trace(bench, length, seed):
    return tuple(generate_trace(bench, length, seed))


def stats_payload(label):
    config, bench, length, seed = CASES[label]
    return build_core(config).run(list(_trace(bench, length, seed))).to_dict()


def render(doc):
    """One line per case, so a diff of the file names the runs that
    moved."""
    lines = [f" {json.dumps(label)}: {json.dumps(payload)}"
             for label, payload in doc.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert list(golden) == list(CASES)


@pytest.mark.parametrize("model", ("BIG+FX", "HALF+FX"))
def test_soplex_replays_a_violation(golden, model):
    """Keeps the squash of entries inside the IXU pipe covered."""
    payload = golden[f"{model}/soplex"]
    assert payload["violations"] > 0
    assert payload["squashed"] > 0


@pytest.mark.parametrize("bench", VARIANT_BENCHMARKS)
def test_ixu_memory_ops_raise_the_executed_rate(golden, bench):
    """Without IXU memory ops (paper Section II-D3) the IXU executes a
    smaller share and no store skips its violation search."""
    base = golden[f"HALF+FX/{bench}"]
    no_mem = golden[f"HALF+FX[no-mem]/{bench}"]
    assert (base["ixu_executed"] / base["committed"]
            > no_mem["ixu_executed"] / no_mem["committed"])
    assert no_mem["events"]["lsq_omitted_searches"] == 0


@pytest.mark.parametrize("fastforward", ("on", "off"))
@pytest.mark.parametrize("label", list(CASES))
def test_stats_match_golden(golden, monkeypatch, label, fastforward):
    if fastforward == "on":
        monkeypatch.delenv("REPRO_NO_FASTFORWARD", raising=False)
    else:
        monkeypatch.setenv("REPRO_NO_FASTFORWARD", "1")
    assert json.dumps(stats_payload(label)) == json.dumps(golden[label])


if __name__ == "__main__":
    GOLDEN.write_text(render({label: stats_payload(label)
                              for label in CASES}))
