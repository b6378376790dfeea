"""One functional warm-up per interval and warm-state key.

``runner.simulate`` restores a core's caches and predictor from the
state that the first core of the same ``runner.warm_state_key`` left
after its functional warm-up on the interval.  A restored run must be
byte-identical to a run that warms up itself, observed runs included;
configs that differ in a key field must each warm up, and configs that
differ only elsewhere must share the state.
"""

import dataclasses
import json

import pytest

from repro.branch import BranchPredictor
from repro.core import MODEL_NAMES, model_config
from repro.experiments import runner
from repro.mem.hierarchy import CacheHierarchy, HierarchyConfig
from repro.obs import Observability, TimelineCollector, TopDownCollector
from repro.validate.fuzz import sample_case

MEASURE = 600
WARMUP = 2000
TABLE_I = ("LITTLE", "BIG", "BIG+FX", "HALF", "HALF+FX", "CA")


@pytest.fixture
def warmups(monkeypatch):
    """An empty trace memo; yields the names of the configs that ran a
    functional warm-up, in order."""
    monkeypatch.setattr(runner, "_TRACE_MEMO", {})
    names = []
    functional_warmup = runner.functional_warmup

    def counting(core, trace):
        names.append(core.config.name)
        functional_warmup(core, trace)

    monkeypatch.setattr(runner, "functional_warmup", counting)
    return names


def _payload(config, bench, observe=False):
    """``simulate``'s ``to_dict()`` (and, observed, the top-down tree
    and timeline samples) as one JSON string."""
    obs = timeline = topdown = None
    if observe:
        timeline = TimelineCollector(interval=150)
        topdown = TopDownCollector()
        obs = Observability(timeline=timeline, topdown=topdown)
    run = runner.simulate(config, bench, MEASURE, WARMUP, obs=obs)
    doc = {"run": run.to_dict()}
    if observe:
        doc["topdown"] = topdown.to_dict()
        doc["timeline"] = [sample.to_dict() for sample in timeline.samples]
    return json.dumps(doc)


def _fresh(config, bench, observe=False):
    """The payload of a run that warms up itself (empty memo)."""
    runner._TRACE_MEMO.clear()
    return _payload(config, bench, observe)


def _restored(warmer, config, bench, observe=False):
    """The payload of ``config`` run after ``warmer`` warmed up."""
    runner._TRACE_MEMO.clear()
    runner.simulate(warmer, bench, MEASURE, WARMUP)
    return _payload(config, bench, observe)


def _key_twin(config, name="twin"):
    """A LITTLE core with ``config``'s warm-state key fields."""
    return dataclasses.replace(
        model_config("LITTLE"), name=name, hierarchy=config.hierarchy,
        pht_entries=config.pht_entries, btb_entries=config.btb_entries,
        ras_depth=config.ras_depth, predictor_kind=config.predictor_kind)


def _fuzz_configs():
    return [config for index in range(2)
            for config in sample_case(seed=5, index=index).configs]


def _hierarchy_variants():
    big = model_config("BIG")
    return [dataclasses.replace(big, name=f"BIG-{field}", hierarchy=
                                dataclasses.replace(HierarchyConfig(),
                                                    **{field: value}))
            for field, value in (("l2_kb", 256), ("prefetch_degree", 0))]


class TestRestoreMatchesFreshWarmup:
    @pytest.mark.parametrize("model", TABLE_I)
    def test_table_i_models(self, warmups, model):
        config = model_config(model)
        warmer = model_config("BIG" if model == "LITTLE" else "LITTLE")
        fresh = _fresh(config, "mcf")
        del warmups[:]
        assert _restored(warmer, config, "mcf") == fresh
        assert warmups == [warmer.name]

    @pytest.mark.parametrize(
        "config", _fuzz_configs() + _hierarchy_variants(),
        ids=lambda config: config.name)
    def test_sampled_configs(self, warmups, config):
        bench = "hmmer" if config.hierarchy.prefetch_degree else "lbm"
        fresh = _fresh(config, bench)
        del warmups[:]
        assert _restored(_key_twin(config), config, bench) == fresh
        assert warmups == ["twin"]

    def test_sampled_configs_cover_the_key_fields(self):
        configs = _fuzz_configs() + _hierarchy_variants()
        keys = [runner.warm_state_key(config) for config in configs]
        for index in range(5):
            assert len({key[index] for key in keys}) > 1

    @pytest.mark.parametrize("model", ("LITTLE", "HALF+FX", "CA"))
    def test_observed_runs(self, warmups, model):
        config = model_config(model)
        fresh = _fresh(config, "mcf", observe=True)
        del warmups[:]
        assert _restored(model_config("BIG"), config, "mcf",
                         observe=True) == fresh
        assert warmups == ["BIG"]


class TestCoresBuiltAroundTheirWarmState:
    def test_one_hierarchy_and_predictor_per_key(self, warmups,
                                                 monkeypatch):
        """Figure 7's five models on one interval construct one cache
        hierarchy and one predictor per warm-state key: a core after
        the first of its key runs on the restored pair."""
        built = []
        for cls in (CacheHierarchy, BranchPredictor):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        configs = [model_config(model) for model in MODEL_NAMES]
        keys = {runner.warm_state_key(config) for config in configs}
        assert len(keys) < len(configs)
        for config in configs:
            runner.simulate(config, "mcf", MEASURE, WARMUP)
        assert sorted(built) == (["BranchPredictor"] * len(keys)
                                 + ["CacheHierarchy"] * len(keys))
        assert len(warmups) == len(keys)


class TestWarmStateKey:
    @pytest.mark.parametrize("change", [
        {"pht_entries": 1024},
        {"btb_entries": 256},
        {"ras_depth": 8},
        {"predictor_kind": "tournament"},
        {"hierarchy": HierarchyConfig(l2_kb=256)},
        {"hierarchy": HierarchyConfig(prefetch_degree=0)},
    ], ids=lambda change: next(iter(change)))
    def test_a_key_field_change_warms_up_again(self, warmups, change):
        base = model_config("HALF")
        other = dataclasses.replace(base, name="other", **change)
        assert runner.warm_state_key(other) != runner.warm_state_key(base)
        for config in (base, other, base, other):
            runner.simulate(config, "gcc", MEASURE, WARMUP)
        assert warmups == ["HALF", "other"]
        entry = runner.interval("gcc", MEASURE, WARMUP)
        assert len(entry.warm_states) == 2

    @pytest.mark.parametrize("change", [
        {"iq_entries": 16}, {"issue_width": 1}, {"fetch_to_rename": 3},
    ], ids=lambda change: next(iter(change)))
    def test_a_non_key_change_reuses_the_state(self, warmups, change):
        base = model_config("HALF")
        other = dataclasses.replace(base, name="other", **change)
        assert runner.warm_state_key(other) == runner.warm_state_key(base)
        runner.simulate(base, "gcc", MEASURE, WARMUP)
        runner.simulate(other, "gcc", MEASURE, WARMUP)
        assert warmups == ["HALF"]

    def test_states_live_and_die_with_the_memo_entry(self, warmups,
                                                     monkeypatch):
        key = ("gcc", MEASURE, WARMUP, 0)
        runner.simulate(model_config("BIG"), *key)
        entry = runner._TRACE_MEMO[key]
        assert len(entry.warm_states) == 1
        # A miss on a full memo empties it first: the entry goes, and
        # its warm states with it.
        monkeypatch.setattr(runner, "TRACE_MEMO_LIMIT", 1)
        other = ("mcf",) + key[1:]
        runner.interval(*other)
        assert list(runner._TRACE_MEMO) == [other]
        runner.simulate(model_config("HALF"), *key)
        assert warmups == ["BIG", "HALF"]
