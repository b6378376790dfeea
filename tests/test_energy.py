"""Tests for the energy and area models."""

import pytest

from repro.core import build_core, model_config
from repro.core.stats import CoreStats, EventCounts
from repro.energy import (
    AreaModel,
    Component,
    DEFAULT_DEVICE,
    EnergyModel,
)
from repro.workloads import generate_trace


def _stats_with(model="BIG", **events):
    stats = CoreStats(model=model)
    stats.committed = events.pop("committed", 1000)
    for key, value in events.items():
        setattr(stats.events, key, value)
    return stats


class TestAreaModel:
    def test_big_matches_paper_shares(self):
        """Paper Section VI-F: L2 ~44% and FPU ~24% of the whole."""
        area = AreaModel(model_config("BIG"))
        breakdown = area.breakdown()
        total = area.total()
        assert 0.40 < breakdown[Component.L2] / total < 0.50
        assert 0.20 < breakdown[Component.FPU] / total < 0.28

    def test_halffx_area_growth_near_paper(self):
        """Paper: HALF+FX grows the whole-core area by ~2.7%."""
        big = AreaModel(model_config("BIG")).total()
        halffx = AreaModel(model_config("HALF+FX")).total()
        assert 1.01 < halffx / big < 1.05
        assert abs(halffx / big - 1.0 - 0.027) < 0.01

    def test_iq_area_scales_with_capacity_and_width(self):
        big = AreaModel(model_config("BIG")).breakdown()
        half = AreaModel(model_config("HALF")).breakdown()
        ratio = half[Component.IQ] / big[Component.IQ]
        assert abs(ratio - 0.25) < 1e-9  # 32/64 entries x 2/4 width

    def test_little_has_no_ooo_structures(self):
        breakdown = AreaModel(model_config("LITTLE")).breakdown()
        assert breakdown[Component.IQ] == 0.0
        assert breakdown[Component.LSQ] == 0.0
        assert breakdown[Component.RAT] == 0.0
        assert breakdown[Component.IXU] == 0.0

    def test_ixu_area_scales_with_fus(self):
        from repro.core import IXUConfig
        from repro.core.presets import half_fx_config

        small = AreaModel(half_fx_config(
            IXUConfig(stage_fus=(3, 1, 1)))).breakdown()
        large = AreaModel(half_fx_config(
            IXUConfig(stage_fus=(3, 3, 3)))).breakdown()
        assert large[Component.IXU] > small[Component.IXU]

    def test_core_area_excludes_l2(self):
        area = AreaModel(model_config("BIG"))
        assert area.core_area() == pytest.approx(
            area.total() - area.breakdown()[Component.L2]
        )


class TestEnergyModel:
    def test_zero_events_gives_zero_dynamic(self):
        model = EnergyModel(model_config("BIG"))
        breakdown = model.evaluate(_stats_with(cycles=0))
        assert sum(breakdown.dynamic.values()) == 0.0
        assert sum(breakdown.static.values()) == 0.0

    def test_static_scales_with_cycles(self):
        model = EnergyModel(model_config("BIG"))
        short = model.evaluate(_stats_with(cycles=100))
        long = model.evaluate(_stats_with(cycles=200))
        assert sum(long.static.values()) == pytest.approx(
            2 * sum(short.static.values())
        )

    def test_iq_access_cheaper_on_half(self):
        """Energy per IQ access scales with capacity x width."""
        events = dict(iq_dispatches=1000, cycles=0)
        big = EnergyModel(model_config("BIG")).evaluate(
            _stats_with(**events))
        half = EnergyModel(model_config("HALF")).evaluate(
            _stats_with(**events))
        ratio = (half.dynamic[Component.IQ]
                 / big.dynamic[Component.IQ])
        assert abs(ratio - 0.25) < 1e-9

    def test_l2_static_negligible(self):
        """Table II: LSTP devices make L2 leakage tiny despite its area."""
        model = EnergyModel(model_config("BIG"))
        breakdown = model.evaluate(_stats_with(cycles=100000))
        assert (breakdown.static[Component.L2]
                < 0.1 * breakdown.static[Component.FPU])

    def test_ixu_mem_ops_not_double_priced(self):
        """An IXU-executed memory op's AGU energy lands in IXU, not FUs."""
        config = model_config("HALF+FX")
        model = EnergyModel(config)
        with_ixu_mem = model.evaluate(_stats_with(
            model="HALF+FX", fu_mem_ops=100, ixu_ops=100,
            ixu_mem_ops=100, cycles=0))
        assert with_ixu_mem.dynamic[Component.FUS] == pytest.approx(0.0)
        assert with_ixu_mem.dynamic[Component.IXU] > 0

    def test_edp_and_relative(self):
        model = EnergyModel(model_config("BIG"))
        a = model.evaluate(_stats_with(cycles=1000, decoded=1000))
        b = model.evaluate(_stats_with(cycles=2000, decoded=2000))
        assert b.relative_to(a) > 1.0
        assert b.edp() > a.edp()

    def test_shares_sum_to_one(self):
        stats = build_core("BIG").run(generate_trace("gcc", 1500))
        breakdown = EnergyModel(model_config("BIG")).evaluate(stats)
        assert sum(breakdown.shares().values()) == pytest.approx(1.0)

    def test_device_params_match_table2(self):
        assert DEFAULT_DEVICE.temperature_k == 320
        assert DEFAULT_DEVICE.vdd == 0.8
        assert DEFAULT_DEVICE.core_ioff_na_per_um == 127.0
        assert DEFAULT_DEVICE.l2_ioff_na_per_um == 0.0968
        assert "22 nm" in DEFAULT_DEVICE.technology


class TestEndToEndEnergy:
    """The paper's headline energy directions on a small workload set."""

    @pytest.fixture(scope="class")
    def runs(self):
        from repro.core.warmup import functional_warmup
        from repro.workloads import TraceGenerator, build_program, get_profile

        results = {}
        for model in ("BIG", "HALF", "LITTLE", "HALF+FX"):
            generator = TraceGenerator(build_program(get_profile("gcc")))
            warm = generator.generate(12000)
            generator.seq = 0  # number the measured slice from 0
            measure = generator.generate(2500)
            core = build_core(model)
            functional_warmup(core, warm)
            stats = core.run(measure)
            results[model] = EnergyModel(model_config(model)).evaluate(
                stats)
        return results

    def test_halffx_cuts_iq_energy(self, runs):
        assert (runs["HALF+FX"].component_total(Component.IQ)
                < 0.5 * runs["BIG"].component_total(Component.IQ))

    def test_halffx_cuts_lsq_energy(self, runs):
        assert (runs["HALF+FX"].component_total(Component.LSQ)
                < runs["BIG"].component_total(Component.LSQ))

    def test_halffx_reduces_total(self, runs):
        assert runs["HALF+FX"].total < runs["BIG"].total

    def test_little_uses_least_energy(self, runs):
        assert runs["LITTLE"].total < runs["HALF+FX"].total

    def test_ixu_energy_present_only_in_fxa(self, runs):
        assert runs["HALF+FX"].component_total(Component.IXU) > 0
        assert runs["BIG"].component_total(Component.IXU) == 0
