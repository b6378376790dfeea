"""Tests for the observability metrics registry."""

import pytest

from repro.obs import MetricsRegistry, occupancy_bounds


class TestCounter:
    def test_add_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        counter.add(3)
        counter.add()
        assert counter.value == 4

    def test_counter_is_memoised_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")


class TestHistogram:
    def test_bucket_edges(self):
        registry = MetricsRegistry()
        hist = registry.histogram("occ", bounds=(2, 4))
        for value in (0, 2, 3, 4, 5, 100):
            hist.observe(value)
        # bisect_left: bucket i counts values in (bounds[i-1], bounds[i]].
        assert hist.counts == [2, 2, 2]
        assert hist.total == 114
        assert hist.samples == 6

    def test_mean(self):
        registry = MetricsRegistry()
        hist = registry.histogram("occ", bounds=(8,))
        hist.observe(2)
        hist.observe(4)
        assert hist.mean == 3.0

    def test_bounds_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", bounds=(4, 4))

    def test_missing_histogram_without_bounds_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.histogram("absent")


class TestRoundTrip:
    def test_registry_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").add(7)
        hist = registry.histogram("h", bounds=(1, 2))
        hist.observe(1)
        hist.observe(9)
        data = registry.to_dict()
        back = MetricsRegistry.from_dict(data)
        assert back.to_dict() == data
        assert back.counter("c").value == 7
        assert back.histogram("h").counts == [1, 0, 1]

    def test_to_dict_is_json_shaped(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c").add(1)
        registry.histogram("h", bounds=(4,)).observe(2)
        assert json.loads(json.dumps(registry.to_dict())) == (
            registry.to_dict()
        )


class TestGauge:
    def test_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(4)
        gauge.add(-1)
        assert gauge.value == 3
        assert registry.gauge("depth") is gauge

    def test_gauges_key_only_serialises_when_used(self):
        # Simulator results never touch gauges; their to_dict must stay
        # byte-identical to pre-gauge releases.
        registry = MetricsRegistry()
        registry.counter("c").add(1)
        assert "gauges" not in registry.to_dict()
        registry.gauge("g").set(2.5)
        data = registry.to_dict()
        assert data["gauges"] == {"g": 2.5}
        back = MetricsRegistry.from_dict(data)
        assert back.gauge("g").value == 2.5


class TestFamily:
    def test_children_keyed_by_label_values(self):
        registry = MetricsRegistry()
        family = registry.counter_family("req", ("route", "code"))
        family.labels(route="/a", code=200).add(2)
        family.labels(route="/a", code=500).add()
        assert family.labels(route="/a", code="200").value == 2
        values = {labels: child.value
                  for labels, child in family.children()}
        assert values == {("/a", "200"): 2, ("/a", "500"): 1}

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        family = registry.counter_family("req", ("route",))
        with pytest.raises(KeyError):
            family.labels(code=200)
        with pytest.raises(KeyError):
            family.labels(route="/a", code=200)

    def test_redeclaration_must_match(self):
        registry = MetricsRegistry()
        registry.counter_family("req", ("route",))
        assert registry.counter_family("req", ("route",)) is not None
        with pytest.raises(ValueError, match="redeclared"):
            registry.gauge_family("req", ("route",))
        with pytest.raises(ValueError, match="redeclared"):
            registry.counter_family("req", ("code",))

    def test_histogram_family_needs_bounds(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="bounds"):
            registry.family("h", "histogram", ())
        hist = registry.histogram_family("h", (), (1.0, 2.0))
        hist.labels().observe(1.5)
        assert hist.labels().counts == [0, 1, 0]

    def test_unknown_kind_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="kind"):
            registry.family("x", "summary", ())

    def test_families_never_serialise(self):
        # Families are serving-side; cached simulator results must not
        # grow a key for them.
        registry = MetricsRegistry()
        registry.counter_family("req", ()).labels().add()
        assert set(registry.to_dict()) == {"counters", "histograms"}


class TestOccupancyBounds:
    def test_ends_at_capacity(self):
        bounds = occupancy_bounds(32)
        assert bounds[-1] == 32
        assert list(bounds) == sorted(set(bounds))

    def test_small_capacity(self):
        assert occupancy_bounds(2) == [1, 2]
