"""Metrics registry: named counters and bucketed histograms.

The observability layer records two kinds of measurements:

* **Counters** — monotonic event totals (IXU executes vs. NOP
  passthroughs, bypass-operand hits, stall/commit cycle counts).
* **Histograms** — per-cycle samples bucketed against fixed boundaries
  (IQ/ROB/LSQ occupancy), cheap enough to take every simulated cycle.

Everything here is disabled-by-default and zero-cost when off: the cores
only touch the registry behind a single ``is None`` guard per cycle.

The registry serialises to a plain JSON-safe dict (``to_dict``), which is
how it rides inside :class:`~repro.core.stats.CoreStats` through the disk
cache and the CLI ``--json`` output.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """A bucketed histogram with fixed upper-bound boundaries.

    ``bounds`` are inclusive upper edges; a sample lands in the first
    bucket whose bound is >= the sample, with one overflow bucket past
    the last bound (``counts`` has ``len(bounds) + 1`` cells).
    """

    __slots__ = ("name", "bounds", "counts", "total", "samples")

    def __init__(self, name: str, bounds: Sequence[float]):
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = list(bounds)
        if ordered != sorted(set(ordered)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.bounds: List[float] = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.total = 0.0
        self.samples = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` identical samples (several for the cycles of
        a fast-forwarded gap)."""
        self.counts[bisect_left(self.bounds, value)] += count
        self.total += value * count
        self.samples += count

    @property
    def mean(self) -> float:
        return self.total / self.samples if self.samples else 0.0

    def to_dict(self) -> Dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "samples": self.samples,
        }

    @classmethod
    def from_dict(cls, name: str, data: Dict) -> "Histogram":
        hist = cls(name, data["bounds"])
        hist.counts = list(data["counts"])
        hist.total = data.get("total", 0.0)
        hist.samples = data.get("samples", 0)
        return hist

    def __repr__(self) -> str:
        return (f"<Histogram {self.name} samples={self.samples} "
                f"mean={self.mean:.2f}>")


class Gauge:
    """A named value that can go up and down (queue depth, backlog)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0):
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


#: Family kinds recognised by :class:`Family` (Prometheus vocabulary).
FAMILY_KINDS = ("counter", "gauge", "histogram")


class Family:
    """A labeled metric family: one child metric per label-value tuple.

    Mirrors the Prometheus data model — ``labels(route="/v1/status",
    code="200")`` returns (creating on demand) the child
    :class:`Counter` / :class:`Gauge` / :class:`Histogram` for that
    label combination.  Children are keyed by the tuple of label values
    in declaration order, so lookup is a dict probe, not string
    formatting.
    """

    __slots__ = ("name", "kind", "label_names", "help", "bounds",
                 "_children")

    def __init__(self, name: str, kind: str,
                 label_names: Sequence[str], help_text: str = "",
                 bounds: Optional[Sequence[float]] = None):
        if kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {kind!r}")
        if kind == "histogram" and not bounds:
            raise ValueError("histogram family needs bucket bounds")
        self.name = name
        self.kind = kind
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self.help = help_text
        self.bounds = list(bounds) if bounds else None
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labels: object):
        """Child metric for this label combination (created on demand)."""
        try:
            key = tuple(str(labels[name]) for name in self.label_names)
        except KeyError as exc:
            raise KeyError(
                f"family {self.name!r} requires labels "
                f"{self.label_names}, got {sorted(labels)}") from exc
        if len(labels) != len(self.label_names):
            raise KeyError(
                f"family {self.name!r} requires labels "
                f"{self.label_names}, got {sorted(labels)}")
        child = self._children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter(self.name)
            elif self.kind == "gauge":
                child = Gauge(self.name)
            else:
                child = Histogram(self.name, self.bounds or [1.0])
            self._children[key] = child
        return child

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(label_values, child)`` pairs sorted by label values."""
        return sorted(self._children.items())

    def __repr__(self) -> str:
        return (f"<Family {self.name} kind={self.kind} "
                f"children={len(self._children)}>")


class MetricsRegistry:
    """Create-on-demand store of named counters and histograms."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._families: Dict[str, Family] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            if bounds is None:
                raise KeyError(
                    f"histogram {name!r} does not exist and no bounds "
                    f"were given to create it"
                )
            hist = self._histograms[name] = Histogram(name, bounds)
        return hist

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def family(self, name: str, kind: str,
               label_names: Sequence[str], help_text: str = "",
               bounds: Optional[Sequence[float]] = None) -> Family:
        """Labeled metric family (created on first use).

        Re-requesting an existing family validates that kind and label
        names match the original declaration — a mismatch is a
        programming error, not a merge.
        """
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = Family(
                name, kind, label_names, help_text, bounds)
        elif (family.kind != kind
              or family.label_names != tuple(label_names)):
            raise ValueError(
                f"family {name!r} redeclared with different "
                f"kind/labels ({family.kind}{family.label_names} vs "
                f"{kind}{tuple(label_names)})")
        return family

    def counter_family(self, name: str, label_names: Sequence[str],
                       help_text: str = "") -> Family:
        return self.family(name, "counter", label_names, help_text)

    def gauge_family(self, name: str, label_names: Sequence[str],
                     help_text: str = "") -> Family:
        return self.family(name, "gauge", label_names, help_text)

    def histogram_family(self, name: str, label_names: Sequence[str],
                         bounds: Sequence[float],
                         help_text: str = "") -> Family:
        return self.family(name, "histogram", label_names, help_text,
                           bounds)

    def counters(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def gauges(self) -> Dict[str, float]:
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def families(self) -> Dict[str, Family]:
        return dict(sorted(self._families.items()))

    def to_dict(self) -> Dict:
        """JSON-safe dump: ``{"counters": {...}, "histograms": {...}}``.

        Gauges and families are serving-side constructs; the keys only
        appear when populated so simulator results (which never use
        them) stay byte-identical to earlier releases.
        """
        data = {
            "counters": self.counters(),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self._histograms.items())
            },
        }
        if self._gauges:
            data["gauges"] = self.gauges()
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "MetricsRegistry":
        registry = cls()
        for name, value in data.get("counters", {}).items():
            registry._counters[name] = Counter(name, value)
        for name, payload in data.get("histograms", {}).items():
            registry._histograms[name] = Histogram.from_dict(name, payload)
        for name, value in data.get("gauges", {}).items():
            registry._gauges[name] = Gauge(name, value)
        return registry


def occupancy_bounds(capacity: int, buckets: int = 8) -> List[int]:
    """Evenly-spaced occupancy bucket bounds for a structure of
    ``capacity`` entries (last bound = capacity, so the overflow bucket
    stays empty and the distribution is exhaustive)."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    buckets = min(buckets, capacity)
    bounds = sorted({
        max(1, (capacity * i) // buckets) for i in range(1, buckets + 1)
    })
    if bounds[-1] != capacity:
        bounds.append(capacity)
    return bounds
