"""Counters, gauges, histograms and the registry that exports them.

A :class:`MetricsRegistry` is the numeric side of the observability
layer: where the tracer records *what happened*, the registry records
*how much*.  ``engine.sweep`` publishes its :class:`SweepStats` deltas
into one, and the runner writes the whole registry to disk behind
``--metrics-out``.

Like the tracer, a registry is injected -- never a module-level
singleton (REPRO008) -- and its export is canonical: instruments sort by
name and serialize with sorted keys, so two runs that record the same
values produce byte-identical JSON.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.errors import ConfigurationError

#: Schema tag on exported metrics documents.
SCHEMA_VERSION = 1

#: Default histogram bucket upper bounds (seconds-ish scale); the last
#: implicit bucket is unbounded.
DEFAULT_BOUNDS = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0)


class Counter:
    """A monotonically non-decreasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc({amount}))")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def to_json(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value; set() overwrites."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: float = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def to_json(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with running sum/min/max.

    ``bounds`` are inclusive upper edges of the finite buckets; one
    overflow bucket catches everything beyond the last edge.  Bucketing
    is fixed at construction so exports are shape-stable across runs.
    """

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges or list(edges) != sorted(set(edges)):
            raise ConfigurationError(
                f"histogram {name!r} bounds must be non-empty and strictly "
                f"increasing, got {list(bounds)!r}")
        self.name = name
        self.bounds = edges
        self._buckets = [0] * (len(edges) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: float = 0.0
        self._max: float = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self._buckets[bisect_left(self.bounds, value)] += 1
        if self._count == 0:
            self._min = self._max = value
        else:
            self._min = min(self._min, value)
            self._max = max(self._max, value)
        self._count += 1
        self._sum += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self._buckets),
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
        }


class MetricsRegistry:
    """A named collection of instruments with canonical JSON export.

    ``counter``/``gauge``/``histogram`` get-or-create by name; asking for
    an existing name with a different instrument type is a configuration
    error, so one metric never silently means two things.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get(self, name: str, cls, factory):
        if not name or not isinstance(name, str):
            raise ConfigurationError(
                f"metric name must be a non-empty string, got {name!r}")
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {name!r} is a {type(existing).__name__}, not a "
                    f"{cls.__name__}")
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BOUNDS) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, bounds))

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def value(self, name: str) -> Any:
        """The current value of a counter/gauge (KeyError if absent)."""
        return self._instruments[name].value

    def items(self) -> List[Tuple[str, Union[Counter, Gauge, Histogram]]]:
        return sorted(self._instruments.items())

    def to_json(self) -> Dict[str, Any]:
        """Canonical export: instruments grouped by type, sorted by name."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for name, instrument in self.items():
            if isinstance(instrument, Counter):
                counters[name] = instrument.to_json()
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.to_json()
            else:
                histograms[name] = instrument.to_json()
        return {
            "schema": SCHEMA_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    def write_json(self, path: Union[str, Path]) -> Path:
        """Write the canonical export to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json_text(), encoding="utf-8")
        return path

    def describe(self) -> str:
        if not self._instruments:
            return "metrics: empty"
        parts = []
        for name, instrument in self.items():
            if isinstance(instrument, Histogram):
                parts.append(f"{name}[n={instrument.count}]")
            else:
                parts.append(f"{name}={instrument.value}")
        return "metrics: " + ", ".join(parts)
