"""Fast-forward equivalence suite (see repro.core.kernel).

The event-driven kernel is only allowed to be *fast*: every observable
— committed instructions, cycles, stall attribution, event counters,
energy — must be bit-identical to the serial tick loop it replaces.
These tests run the same workload with the kernel enabled and with the
``REPRO_NO_FASTFORWARD=1`` escape hatch (read once, at core
construction) and compare full ``to_dict()`` payloads:

* on the golden model configurations (all four core families),
* on fuzzer-jittered configurations (narrow queues, odd widths,
  degenerate in-order shapes — where a wrong event horizon would skip
  real work),
* through the parallel sweep pool (``--jobs 1`` vs ``2``),
* under a ``max_cycles`` clamp landing mid-run (the jump must stop on
  exactly the clamp cycle, like the serial loop).

:class:`TestFastForwardFloor` checks that the kernel still skips most of
a memory-bound run's cycles, so it fails when run with the escape hatch
set.
"""

import pytest

from repro.core import build_core, model_config
from repro.core.kernel import fastforward_enabled
from repro.obs import Observability, TimelineCollector
from repro.experiments.runner import (
    clear_cache,
    interval,
    prefetch,
    run_benchmark,
    set_jobs,
    simulate,
)
from repro.validate.fuzz import sample_case
from repro.workloads import generate_trace

MODELS = ("BIG", "HALF+FX", "LITTLE", "CA")
SMALL = dict(measure=1500, warmup=500)


def _payload(config, benchmark, **kwargs):
    run = simulate(config, benchmark, seed=3, **kwargs)
    return run.to_dict()


class TestEscapeHatch:
    def test_env_flag_read_at_construction(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_FASTFORWARD", raising=False)
        assert fastforward_enabled()
        assert build_core("BIG")._ff
        monkeypatch.setenv("REPRO_NO_FASTFORWARD", "1")
        assert not fastforward_enabled()
        assert not build_core("BIG")._ff
        # "0" and empty mean enabled (documented in EXPERIMENTS.md).
        monkeypatch.setenv("REPRO_NO_FASTFORWARD", "0")
        assert build_core("BIG")._ff


class TestGoldenConfigEquivalence:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("bench", ("hmmer", "mcf"))
    def test_bit_identical_to_dict(self, monkeypatch, model, bench):
        config = model_config(model)
        monkeypatch.delenv("REPRO_NO_FASTFORWARD", raising=False)
        fast = _payload(config, bench, **SMALL)
        monkeypatch.setenv("REPRO_NO_FASTFORWARD", "1")
        serial = _payload(config, bench, **SMALL)
        assert fast == serial
        assert fast["stats"]["committed"] == SMALL["measure"]

    @pytest.mark.parametrize("model", MODELS)
    def test_fastforward_actually_skips(self, monkeypatch, model):
        """The equivalence above would pass trivially if the kernel
        never jumped; prove it engages on a memory-bound workload."""
        monkeypatch.delenv("REPRO_NO_FASTFORWARD", raising=False)
        trace = generate_trace("mcf", 1200, seed=3)
        core = build_core(model)
        stats = core.run(list(trace))
        assert core._ff_skipped > 0, (
            f"{model}: every one of {stats.cycles} cycles was ticked "
            f"serially; the fast-forward kernel never engaged")


#: Least share of its cycles each family's kernel skips on mcf, 12,000
#: measured instructions after 4,000 of warm-up.  Measured: LITTLE
#: 0.959, BIG 0.824, HALF+FX 0.816, CA 0.815.  The in-order core jumps
#: whole miss shadows; the out-of-order cores keep ticking while
#: misses drain, so their floors are lower.
FASTFORWARD_FLOORS = {"LITTLE": 0.90, "BIG": 0.75, "HALF+FX": 0.75,
                      "CA": 0.75}


class TestFastForwardFloor:
    @pytest.mark.parametrize("model", MODELS)
    def test_kernel_skips_most_cycles_of_a_memory_bound_run(self, model):
        """A cycle count, not a timing: the kernel's skipped share of
        the run.  The environment is read as is, so this fails with
        ``REPRO_NO_FASTFORWARD=1`` set."""
        entry = interval("mcf", 12_000, 4_000)
        core = build_core(model_config(model))
        entry.warm_up(core)
        stats = core.run(entry.trace)
        assert stats.committed == 12_000
        share = core._ff_skipped / stats.cycles
        assert share >= FASTFORWARD_FLOORS[model], (
            f"{model}/mcf: the kernel skipped {share:.3f} of "
            f"{stats.cycles} cycles (floor "
            f"{FASTFORWARD_FLOORS[model]})")


class TestFuzzedConfigEquivalence:
    @pytest.mark.parametrize("index", range(5))
    def test_bit_identical_on_jittered_configs(self, monkeypatch,
                                               index):
        case = sample_case(seed=1106, index=index, max_len=600)
        trace = generate_trace(case.benchmark, case.length,
                               case.trace_seed)
        for config in case.configs:
            monkeypatch.delenv("REPRO_NO_FASTFORWARD", raising=False)
            fast = build_core(config).run(list(trace))
            monkeypatch.setenv("REPRO_NO_FASTFORWARD", "1")
            serial = build_core(config).run(list(trace))
            assert fast.to_dict() == serial.to_dict(), config.name


class TestTimelineEquivalence:
    @pytest.mark.parametrize("model", MODELS)
    def test_interval_samples_bit_identical(self, monkeypatch, model):
        """The to_dict equivalence above covers end-of-run aggregates;
        interval telemetry must also match sample-for-sample — the
        kernel's bulk accumulation (occupancy x skipped, stall cause
        charged once, per-interval energy attribution) has to equal
        the serial per-tick path exactly."""
        trace = list(generate_trace("mcf", 1500, seed=3))

        def sample_stream():
            timeline = TimelineCollector(interval=200)
            obs = Observability(metrics=False, stalls=False,
                                timeline=timeline)
            build_core(model, obs=obs).run(list(trace))
            return [s.to_dict() for s in timeline.samples]

        monkeypatch.delenv("REPRO_NO_FASTFORWARD", raising=False)
        fast = sample_stream()
        monkeypatch.setenv("REPRO_NO_FASTFORWARD", "1")
        serial = sample_stream()
        assert fast  # the workload produced samples to compare
        assert fast == serial


class TestPoolEquivalence:
    def test_jobs_1_vs_2_identical(self):
        """Worker processes inherit the (unset) escape hatch and the
        kernel; pooled results must equal in-process serial ones."""
        pairs = [(model_config(model), bench)
                 for model in ("BIG", "LITTLE")
                 for bench in ("hmmer", "mcf")]
        clear_cache()
        try:
            serial = {
                (config.name, bench):
                    run_benchmark(config, bench, **SMALL).to_dict()
                for config, bench in pairs
            }
            clear_cache()
            set_jobs(2)
            simulated = prefetch(pairs, **SMALL)
            assert simulated == len(pairs)
            for config, bench in pairs:
                pooled = run_benchmark(config, bench, **SMALL)
                assert pooled.to_dict() == serial[(config.name, bench)]
        finally:
            set_jobs(1)
            clear_cache()


class TestMaxCyclesClamp:
    @pytest.mark.parametrize("model", MODELS)
    def test_clamp_lands_on_same_cycle(self, monkeypatch, model):
        """A max_cycles cutoff mid-run truncates the fast-forwarded
        run at the exact cycle the serial loop stops on."""
        trace = generate_trace("mcf", 1000, seed=3)
        monkeypatch.delenv("REPRO_NO_FASTFORWARD", raising=False)
        full = build_core(model).run(list(trace))
        # Clamp to two-thirds of the run: inside at least one
        # fast-forward jump for every family on this workload.
        clamp = max(2, (full.cycles * 2) // 3)
        fast = build_core(model).run(list(trace), max_cycles=clamp)
        monkeypatch.setenv("REPRO_NO_FASTFORWARD", "1")
        serial = build_core(model).run(list(trace), max_cycles=clamp)
        assert fast.to_dict() == serial.to_dict()
        assert fast.cycles < full.cycles  # the clamp truncated the run
