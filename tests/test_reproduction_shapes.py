"""Reproduction gate: the paper's qualitative shapes must hold.

These tests run a moderate simulated interval over a representative
workload subset and assert the *directional* results the paper's
evaluation is built on.  They are the regression gate for calibration
changes: absolute numbers may drift, these orderings must not.
"""

import pytest

from repro.core import model_config
from repro.energy import Component
from repro.experiments import headline
from repro.experiments.runner import clear_cache, geomean, run_benchmark

#: INT-heavy / FP-heavy / memory-bound coverage.
SUBSET = ["hmmer", "libquantum", "gromacs", "sjeng", "lbm", "gcc"]
MEASURE = 4_000
WARMUP = 16_000


@pytest.fixture(scope="module")
def runs():
    clear_cache()
    table = {}
    for model in ("BIG", "HALF", "LITTLE", "HALF+FX", "BIG+FX"):
        config = model_config(model)
        table[model] = {
            bench: run_benchmark(config, bench, MEASURE, WARMUP)
            for bench in SUBSET
        }
    return table


def _rel_ipc(runs, model):
    return geomean([
        runs[model][b].ipc / runs["BIG"][b].ipc for b in SUBSET
    ])


def _total_energy(runs, model):
    return sum(r.total_energy for r in runs[model].values())


def _component(runs, model, component):
    return sum(
        r.energy.component_total(component)
        for r in runs[model].values()
    )


class TestFigure7Shapes:
    def test_little_loses_big_chunk_of_ipc(self, runs):
        assert _rel_ipc(runs, "LITTLE") < 0.75

    def test_half_loses_moderately(self, runs):
        assert 0.75 < _rel_ipc(runs, "HALF") < 0.98

    def test_fxa_recovers_halving_the_iq(self, runs):
        """The paper's core claim: HALF+FX >= BIG despite HALF's IQ."""
        assert _rel_ipc(runs, "HALF+FX") > 0.97
        assert _rel_ipc(runs, "HALF+FX") > _rel_ipc(runs, "HALF") + 0.05

    def test_bigfx_gains_little_over_halffx(self, runs):
        """Paper Section VI-C: the IXU filters enough that doubling the
        IQ back adds only ~2%."""
        gap = _rel_ipc(runs, "BIG+FX") / _rel_ipc(runs, "HALF+FX")
        assert 0.98 < gap < 1.06

    def test_int_throughput_benchmarks_lead(self, runs):
        """libquantum/gromacs (>80% INT ops) gain the most (VI-C)."""
        gains = {
            b: runs["HALF+FX"][b].ipc / runs["BIG"][b].ipc
            for b in SUBSET
        }
        leaders = sorted(gains, key=gains.get, reverse=True)[:3]
        assert {"libquantum", "gromacs"} & set(leaders)


class TestFigure8Shapes:
    def test_fxa_cuts_total_energy(self, runs):
        ratio = _total_energy(runs, "HALF+FX") / _total_energy(runs,
                                                               "BIG")
        assert 0.75 < ratio < 0.95

    def test_iq_energy_slashed(self, runs):
        """Paper: IQ energy drops to ~14% of BIG's."""
        ratio = (_component(runs, "HALF+FX", Component.IQ)
                 / _component(runs, "BIG", Component.IQ))
        assert ratio < 0.35

    def test_lsq_energy_reduced_mildly(self, runs):
        """Paper: LSQ drops to ~77% (omissions are partial)."""
        ratio = (_component(runs, "HALF+FX", Component.LSQ)
                 / _component(runs, "BIG", Component.LSQ))
        assert 0.6 < ratio < 0.95

    def test_little_spends_least(self, runs):
        assert (_total_energy(runs, "LITTLE")
                < _total_energy(runs, "HALF+FX"))

    def test_eu_energy_roughly_flat(self, runs):
        """FUs + IXU + bypass: a small increase at most (Fig 8b)."""
        big = _component(runs, "BIG", Component.FUS)
        fxa = (_component(runs, "HALF+FX", Component.FUS)
               + _component(runs, "HALF+FX", Component.IXU))
        assert 0.7 < fxa / big < 1.35


class TestFigure10Shapes:
    def test_halffx_best_per(self, runs):
        pers = {}
        for model in runs:
            pers[model] = geomean([
                runs[model][b].per / runs["BIG"][b].per for b in SUBSET
            ])
        best = max(pers, key=pers.get)
        assert best == "HALF+FX"
        assert pers["HALF+FX"] > 1.05


class TestIXUShapes:
    def test_over_a_third_executes_in_ixu(self, runs):
        rates = [
            runs["HALF+FX"][b].stats.ixu_executed_rate for b in SUBSET
        ]
        assert sum(rates) / len(rates) > 0.35

    def test_int_rate_exceeds_fp_rate(self, runs):
        int_rate = runs["HALF+FX"]["libquantum"].stats.ixu_executed_rate
        fp_rate = runs["HALF+FX"]["lbm"].stats.ixu_executed_rate
        assert int_rate > fp_rate

    def test_most_mispredicts_resolve_in_ixu(self, runs):
        stats = runs["HALF+FX"]["sjeng"].stats
        assert (stats.mispredictions_resolved_in_ixu
                > 0.3 * max(1, stats.mispredictions))

    def test_headline_rate_is_bounded(self, runs):
        """The headline table's geomean executed rate (paper: 54%),
        computed from the memoised runs above, so no new job runs."""
        results = headline.run(benchmarks=SUBSET, measure=MEASURE,
                               warmup=WARMUP)
        assert 0.2 < results["ixu_executed_rate_all"] < 0.95
