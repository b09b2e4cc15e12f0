"""Labelled metrics: counters, gauges and histograms with exact merges.

The registry is the structured replacement for the flat ``KernelStats``
counter bag: every tier (kernel, machine, sampling, campaign, stores)
registers named metrics with string labels (``machine``, ``engine``,
``sampling``, ...) and the campaign layer merges the per-run payloads
into a rollup without knowing what any metric means.

Design constraints, in priority order:

* **Determinism** — payloads are lists sorted by (name, labels, type) so
  two registries with the same contents serialize byte-identically.
* **Associativity** — ``merge`` must give the same answer regardless of
  how per-run payloads are grouped (campaign shards merge in arbitrary
  order). Counters add, gauges take the max, histograms combine their
  (count, total, min, max) summaries componentwise; none of these
  depend on merge order.
* **No dependencies** — plain stdlib, picklable, JSON-safe values only.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import ObsError

LabelKey = tuple[tuple[str, str], ...]


def canonical_labels(labels: Mapping[str, object]) -> LabelKey:
    """Normalise a label mapping to a sorted tuple of string pairs.

    Label order never matters: ``{"a": 1, "b": 2}`` and ``{"b": 2,
    "a": 1}`` name the same series. Values are stringified so numeric
    labels round-trip through JSON unchanged.
    """
    items = []
    for key, value in labels.items():
        if not key or not isinstance(key, str):
            raise ObsError(f"metric label names must be non-empty str, got {key!r}")
        items.append((key, str(value)))
    items.sort()
    return tuple(items)


class Counter:
    """A monotonically increasing count; merges by summing."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey, value: int | float = 0):
        self.name = name
        self.labels = labels
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_values(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A point-in-time level; merges by max (the only associative choice
    that is also order-independent — "last write" is neither across
    unordered campaign shards)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey, value: int | float = 0):
        self.name = name
        self.labels = labels
        self.value = value

    def set(self, value: int | float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)

    def to_values(self) -> dict:
        return {"value": self.value}


class Histogram:
    """A (count, total, min, max) summary; merges componentwise."""

    kind = "histogram"
    __slots__ = ("name", "labels", "count", "total", "minimum", "maximum")

    def __init__(
        self,
        name: str,
        labels: LabelKey,
        count: int = 0,
        total: float = 0.0,
        minimum: float | None = None,
        maximum: float | None = None,
    ):
        self.name = name
        self.labels = labels
        self.count = count
        self.total = total
        self.minimum = minimum
        self.maximum = maximum

    def observe(self, value: int | float) -> None:
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        for attr in ("minimum", "maximum"):
            theirs = getattr(other, attr)
            if theirs is None:
                continue
            ours = getattr(self, attr)
            pick = min if attr == "minimum" else max
            setattr(self, attr, theirs if ours is None else pick(ours, theirs))

    def to_values(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """A bag of labelled metrics addressed by (name, labels)."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelKey], object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[object]:
        return iter(self._metrics.values())

    def _get(self, cls, name: str, labels: Mapping[str, object]):
        key = (name, canonical_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, key[1])
        elif type(metric) is not cls:
            raise ObsError(
                f"metric {name!r}{dict(key[1])} is a {metric.kind}, "
                f"not a {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get(Histogram, name, labels)

    def find(self, name: str, **labels: object):
        """Return the metric registered under (name, labels), or None."""
        return self._metrics.get((name, canonical_labels(labels)))

    def select(self, prefix: str) -> list:
        """All metrics whose name starts with ``prefix``, sorted."""
        picked = [m for (n, _), m in self._metrics.items() if n.startswith(prefix)]
        picked.sort(key=lambda m: (m.name, m.labels))
        return picked

    # -- merge / relabel ------------------------------------------------

    def merge(self, other: "MetricsRegistry | Iterable[dict]") -> "MetricsRegistry":
        """Fold another registry (or a serialized payload) into this one."""
        if not isinstance(other, MetricsRegistry):
            other = MetricsRegistry.from_payload(other)
        for key, theirs in other._metrics.items():
            ours = self._metrics.get(key)
            if ours is None:
                clone = type(theirs)(theirs.name, theirs.labels)
                clone.merge(theirs)
                self._metrics[key] = clone
            elif type(ours) is not type(theirs):
                raise ObsError(
                    f"cannot merge {theirs.kind} into {ours.kind} "
                    f"for metric {key[0]!r}{dict(key[1])}"
                )
            else:
                ours.merge(theirs)
        return self

    def relabel(self, **labels: object) -> "MetricsRegistry":
        """A new registry with ``labels`` added to (or overriding) every
        metric's label set — how a sampled run stamps ``sampling=<plan>``
        onto the counters its interval runs produced."""
        out = MetricsRegistry()
        for (name, old), metric in self._metrics.items():
            merged = dict(old)
            merged.update(canonical_labels(labels))
            out.merge_metric(name, canonical_labels(merged), metric)
        return out

    def merge_metric(self, name: str, labels: LabelKey, metric) -> None:
        key = (name, labels)
        ours = self._metrics.get(key)
        if ours is None:
            clone = type(metric)(name, labels)
            clone.merge(metric)
            self._metrics[key] = clone
        else:
            ours.merge(metric)

    # -- serialization --------------------------------------------------

    def to_payload(self) -> list[dict]:
        """A deterministic JSON-safe list, sorted by (name, labels)."""
        rows = []
        for (name, labels), metric in self._metrics.items():
            row = {"name": name, "type": metric.kind, "labels": dict(labels)}
            row.update(metric.to_values())
            rows.append(row)
        rows.sort(key=lambda r: (r["name"], tuple(sorted(r["labels"].items()))))
        return rows

    @classmethod
    def from_payload(cls, payload: Iterable[dict]) -> "MetricsRegistry":
        registry = cls()
        for row in payload:
            try:
                name = row["name"]
                kind = _KINDS[row["type"]]
                labels = canonical_labels(row.get("labels", {}))
            except (KeyError, TypeError) as exc:
                raise ObsError(f"malformed metric row {row!r}") from exc
            if kind is Histogram:
                metric = Histogram(
                    name,
                    labels,
                    count=row.get("count", 0),
                    total=row.get("total", 0.0),
                    minimum=row.get("min"),
                    maximum=row.get("max"),
                )
            else:
                metric = kind(name, labels, value=row.get("value", 0))
            registry.merge_metric(name, labels, metric)
        return registry

    @classmethod
    def rollup(cls, payloads: Iterable["MetricsRegistry | Iterable[dict] | None"]):
        """Merge many per-run payloads (skipping None) into one registry."""
        registry = cls()
        for payload in payloads:
            if payload is not None:
                registry.merge(payload)
        return registry
