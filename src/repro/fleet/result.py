"""Mergeable fleet results: latency histograms and region aggregation.

A region simulates millions of invocations; shipping every per-invocation
latency through the Job cache would dwarf the results themselves.  Nodes
therefore fold latencies into a :class:`LatencyHistogram` -- fixed
log-spaced bins, so histograms from different nodes/shards merge exactly
(bin-wise addition) and percentiles are deterministic regardless of merge
order.  Bin resolution is ~1.8% (128 bins/decade), far below the
tolerances the metamorphic battery asserts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence

from repro.errors import ConfigurationError

#: Lowest representable latency (ms); smaller observations clamp to bin 0.
_LO_MS = 1e-3
#: Bins per decade of latency.
_BINS_PER_DECADE = 128


@dataclass
class LatencyHistogram:
    """Log-spaced latency histogram with exact, order-free merging."""

    counts: Dict[int, int] = field(default_factory=dict)
    total: int = 0

    @staticmethod
    def bin_index(latency_ms: float) -> int:
        if not math.isfinite(latency_ms):
            raise ConfigurationError(
                f"latency must be finite, got {latency_ms}")
        if latency_ms <= _LO_MS:
            return 0
        return int(math.log10(latency_ms / _LO_MS) * _BINS_PER_DECADE)

    @staticmethod
    def bin_upper_ms(index: int) -> float:
        """Upper edge of a bin -- the conservative percentile estimate."""
        return _LO_MS * 10.0 ** ((index + 1) / _BINS_PER_DECADE)

    def observe(self, latency_ms: float) -> None:
        idx = self.bin_index(latency_ms)
        self.counts[idx] = self.counts.get(idx, 0) + 1
        self.total += 1

    def observe_many(self, latencies_ms: Iterable[float]) -> None:
        """Bin every latency in one pass, then add the bins' counts; a
        non-finite latency raises before any count changes."""
        binned = Counter(map(self.bin_index, latencies_ms))
        for idx, count in binned.items():
            self.counts[idx] = self.counts.get(idx, 0) + count
        self.total += sum(binned.values())

    def merge(self, other: "LatencyHistogram") -> None:
        for idx, count in other.counts.items():
            self.counts[idx] = self.counts.get(idx, 0) + count
        self.total += other.total

    def percentile(self, q: float) -> float:
        """Latency (bin upper edge) at percentile ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile out of range: {q}")
        if self.total == 0:
            return 0.0
        # Rank of the q-th sample, 1-based, nearest-rank definition.
        rank = max(1, math.ceil(q / 100.0 * self.total))
        seen = 0
        for idx in sorted(self.counts):
            seen += self.counts[idx]
            if seen >= rank:
                return self.bin_upper_ms(idx)
        return self.bin_upper_ms(max(self.counts))

    @property
    def p50_ms(self) -> float:
        return self.percentile(50.0)

    @property
    def p99_ms(self) -> float:
        return self.percentile(99.0)

    def to_pairs(self) -> List[List[int]]:
        """Canonical ``[bin, count]`` pairs, ascending by bin."""
        return [[idx, self.counts[idx]] for idx in sorted(self.counts)]

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[int]]) -> "LatencyHistogram":
        hist = cls()
        for idx, count in pairs:
            if count < 0:
                raise ConfigurationError(
                    f"histogram count must be >= 0, got {count}")
            hist.counts[int(idx)] = hist.counts.get(int(idx), 0) + int(count)
            hist.total += int(count)
        return hist


def aggregate_nodes(node_results: Sequence[Mapping]) -> Dict:
    """Fold per-node result dicts into one region summary.

    Node results are plain canonical dicts (see ``fleet.node``); the
    aggregate is itself canonical -- identical whatever order or shard
    grouping the node results arrive in, because every field is either a
    sum, a max, or a merge of order-free histograms.
    """
    hist = LatencyHistogram()
    agg: Dict = {
        "nodes": len(node_results),
        "arrivals": 0,
        "invocations": 0,
        "cold_starts": 0,
        "dropped": 0,
        "evictions": 0,
        "busy_ms": 0.0,
        "peak_warm_instances": 0,
        "peak_memory_bytes": 0,
    }
    capacity = 0.0
    for node in node_results:
        for key in ("arrivals", "invocations", "cold_starts", "dropped",
                    "evictions"):
            agg[key] += node[key]
        agg["busy_ms"] += node["busy_ms"]
        agg["peak_warm_instances"] = max(agg["peak_warm_instances"],
                                         node["peak_warm_instances"])
        agg["peak_memory_bytes"] = max(agg["peak_memory_bytes"],
                                       node["peak_memory_bytes"])
        capacity += node["capacity_inv_s"]
        hist.merge(LatencyHistogram.from_pairs(node["latency_pairs"]))
    agg["capacity_inv_s"] = capacity
    agg["p50_latency_ms"] = hist.p50_ms
    agg["p99_latency_ms"] = hist.p99_ms
    agg["latency_pairs"] = hist.to_pairs()
    if agg["arrivals"]:
        agg["drop_fraction"] = agg["dropped"] / agg["arrivals"]
        agg["warm_fraction"] = (1.0 - agg["cold_starts"] / agg["invocations"]
                                if agg["invocations"] else 0.0)
    else:
        agg["drop_fraction"] = 0.0
        agg["warm_fraction"] = 0.0
    return agg
