"""Runtime invariant contracts for the simulator.

The static rules in :mod:`repro.lint.rules` keep *sources* deterministic;
this module keeps *running state* consistent.  It provides cheap,
assert-style checks that the simulation substrate wires into its hot
lifecycle points (per-invocation, per-flush, per-replay -- never per
access):

* :func:`check_access_stats` / :func:`check_hierarchy_stats` -- cache and
  TLB counters balance (hits + misses == accesses, nothing negative,
  prefetch hits bounded by demand traffic);
* :func:`check_topdown` -- the five Top-Down components are non-negative
  and sum to the reported total cycles within tolerance;
* :func:`check_invocation` -- both of the above for one
  :class:`repro.sim.core.InvocationResult`;
* :func:`check_metadata_buffer` / :func:`check_replay_counts` -- Jukebox
  metadata entries are well-formed and the replayed entry count matches
  what the record phase wrote;
* :func:`check` -- the generic hook structural checks (e.g.
  ``SetAssocCache.check_invariants``) build on.

All checks are duck-typed so this module never imports simulator classes
(no import cycles) and raise
:class:`repro.errors.ContractViolationError` on failure.  Checking can be
suspended globally with :func:`set_enabled` or the :func:`disabled`
context manager (useful for micro-benchmarks), but the default simulator
paths run with contracts on.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ContractViolationError

_ENABLED = True

#: Counter fields of an ``AccessStats`` that must never go negative.
_ACCESS_FIELDS = (
    "inst_hits",
    "inst_misses",
    "data_hits",
    "data_misses",
    "inst_prefetch_hits",
    "data_prefetch_hits",
    "prefetched_unused",
)

#: ``MemoryTraffic`` classes that must never go negative.  The two
#: ``prefetch_*`` classes are deliberately absent: useful-prefetch credits
#: re-classify bytes between them after the fact, so they are only
#: meaningful in aggregate (see ``MainMemory.credit_useful_prefetch``).
_TRAFFIC_FIELDS = (
    "demand_inst",
    "demand_data",
    "metadata_record",
    "metadata_replay",
)

#: The five leaf categories of a ``TopDownBreakdown``.
_TOPDOWN_FIELDS = (
    "retiring",
    "fetch_latency",
    "fetch_bandwidth",
    "bad_speculation",
    "backend_bound",
)


def enabled() -> bool:
    """Whether contract checks are currently active."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Globally enable/disable contract checks; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


@contextmanager
def disabled() -> Iterator[None]:
    """Context manager that suspends contract checking inside its body."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


def check(condition: bool, message: str) -> None:
    """Generic contract hook: raise unless ``condition`` holds."""
    if _ENABLED and not condition:
        raise ContractViolationError(message)


# ----------------------------------------------------------------------
# Statistics contracts
# ----------------------------------------------------------------------

def check_access_stats(stats, name: str = "") -> None:
    """Validate one cache/TLB ``AccessStats`` object."""
    if not _ENABLED:
        return
    label = name or "access stats"
    for field_name in _ACCESS_FIELDS:
        value = getattr(stats, field_name)
        if value < 0:
            raise ContractViolationError(
                f"{label}: counter {field_name} is negative ({value})"
            )
    if stats.hits + stats.misses != stats.accesses:
        raise ContractViolationError(
            f"{label}: hits ({stats.hits}) + misses ({stats.misses}) != "
            f"accesses ({stats.accesses})"
        )
    inst_demand = stats.inst_hits + stats.inst_misses
    if stats.inst_prefetch_hits > inst_demand:
        raise ContractViolationError(
            f"{label}: {stats.inst_prefetch_hits} instruction prefetch hits "
            f"exceed {inst_demand} instruction demand accesses"
        )
    data_demand = stats.data_hits + stats.data_misses
    if stats.data_prefetch_hits > data_demand:
        raise ContractViolationError(
            f"{label}: {stats.data_prefetch_hits} data prefetch hits exceed "
            f"{data_demand} data demand accesses"
        )


def check_memory_traffic(traffic, name: str = "memory traffic") -> None:
    """Validate a ``MemoryTraffic`` accounting object."""
    if not _ENABLED:
        return
    for field_name in _TRAFFIC_FIELDS:
        value = getattr(traffic, field_name)
        if value < 0:
            raise ContractViolationError(
                f"{name}: traffic class {field_name} is negative ({value})"
            )
    if traffic.prefetch_useful < 0:
        raise ContractViolationError(
            f"{name}: prefetch_useful is negative ({traffic.prefetch_useful})"
        )


def check_hierarchy_stats(stats, name: str = "hierarchy") -> None:
    """Validate every level of a ``HierarchyStats`` plus its DRAM traffic."""
    if not _ENABLED:
        return
    for level, level_stats in stats.levels().items():
        check_access_stats(level_stats, name=f"{name}.{level}")
    check_memory_traffic(stats.memory, name=f"{name}.memory")


def check_topdown(breakdown, rel_tol: float = 1e-9,
                  abs_tol: float = 1e-6) -> None:
    """Validate a ``TopDownBreakdown``: non-negative components that sum to
    the reported total cycles within tolerance."""
    if not _ENABLED:
        return
    component_sum = 0.0
    for field_name in _TOPDOWN_FIELDS:
        value = getattr(breakdown, field_name)
        if value < -abs_tol:
            raise ContractViolationError(
                f"Top-Down component {field_name} is negative ({value})"
            )
        component_sum += value
    total = breakdown.total_cycles
    if not math.isclose(component_sum, total, rel_tol=rel_tol,
                        abs_tol=abs_tol):
        raise ContractViolationError(
            f"Top-Down components sum to {component_sum} but total_cycles "
            f"reports {total}"
        )
    frontend = breakdown.frontend_bound
    expected_frontend = breakdown.fetch_latency + breakdown.fetch_bandwidth
    if not math.isclose(frontend, expected_frontend, rel_tol=rel_tol,
                        abs_tol=abs_tol):
        raise ContractViolationError(
            f"frontend_bound ({frontend}) != fetch_latency + fetch_bandwidth "
            f"({expected_frontend})"
        )


def check_invocation(result) -> None:
    """Validate one ``InvocationResult`` as produced by ``Simulator.run``."""
    if not _ENABLED:
        return
    if result.instructions < 0:
        raise ContractViolationError(
            f"invocation retired a negative instruction count "
            f"({result.instructions})"
        )
    check_topdown(result.topdown)
    check_hierarchy_stats(result.stats, name="invocation stats")
    for level, count in result.fetch_sources.items():
        if count < 0:
            raise ContractViolationError(
                f"fetch source {level!r} has negative count ({count})"
            )


# ----------------------------------------------------------------------
# Sweep-engine contracts
# ----------------------------------------------------------------------

#: Counter fields of a ``SweepStats`` that must never go negative.
_SWEEP_FIELDS = ("jobs", "hits", "misses", "stores", "failures", "retries")


def check_sweep_stats(stats, name: str = "sweep stats") -> None:
    """Validate an engine ``SweepStats`` object.

    Called at the end of every sweep -- including sweeps whose executor
    raised, so the invariants are inequalities over what *completed*:
    every hit or miss maps to a distinct submitted job, only misses can
    store results, and only misses can fail.
    """
    if not _ENABLED:
        return
    for field_name in _SWEEP_FIELDS:
        value = getattr(stats, field_name)
        if value < 0:
            raise ContractViolationError(
                f"{name}: counter {field_name} is negative ({value})"
            )
    if stats.hits + stats.misses > stats.jobs:
        raise ContractViolationError(
            f"{name}: hits ({stats.hits}) + misses ({stats.misses}) exceed "
            f"submitted jobs ({stats.jobs})"
        )
    if stats.stores > stats.misses:
        raise ContractViolationError(
            f"{name}: stored {stats.stores} results but only "
            f"{stats.misses} cells were simulated"
        )
    if stats.failures > stats.misses:
        raise ContractViolationError(
            f"{name}: {stats.failures} failures exceed the {stats.misses} "
            f"cells that were simulated"
        )


# ----------------------------------------------------------------------
# Observability contracts
# ----------------------------------------------------------------------

def check_trace_event(event, name: str = "trace event") -> None:
    """Validate one emitted ``TraceEvent`` (duck-typed, no obs import).

    The schema itself is enforced by ``repro.obs.records.validate_event``;
    this contract guards the structural invariants the tracer relies on:
    a non-negative sequence number, a dotted event kind, and a payload
    stored as sorted ``(key, value)`` pairs so records compare and
    serialize deterministically.
    """
    if not _ENABLED:
        return
    if event.seq < 0:
        raise ContractViolationError(
            f"{name}: sequence number is negative ({event.seq})"
        )
    if not isinstance(event.kind, str) or "." not in event.kind:
        raise ContractViolationError(
            f"{name}: kind must be a dotted string, got {event.kind!r}"
        )
    keys = [key for key, _ in event.fields]
    if keys != sorted(keys):
        raise ContractViolationError(
            f"{name}: payload keys are not sorted ({keys!r}); records "
            f"would serialize nondeterministically"
        )


# ----------------------------------------------------------------------
# Jukebox metadata contracts
# ----------------------------------------------------------------------

def check_metadata_entry(entry, lines_per_region: int,
                         name: str = "metadata entry") -> None:
    """Validate one ``(region_pointer, access_vector)`` record."""
    if not _ENABLED:
        return
    region, vector = entry
    if region < 0:
        raise ContractViolationError(
            f"{name}: negative region pointer ({region})"
        )
    if vector <= 0:
        raise ContractViolationError(
            f"{name}: access vector must encode at least one line "
            f"(got {vector:#x})"
        )
    if vector >> lines_per_region:
        raise ContractViolationError(
            f"{name}: access vector {vector:#x} wider than "
            f"{lines_per_region} lines per region"
        )


def check_metadata_buffer(buffer, name: str = "metadata buffer") -> None:
    """Validate a whole ``MetadataBuffer`` against its byte limit."""
    if not _ENABLED:
        return
    if buffer.dropped_entries < 0:
        raise ContractViolationError(
            f"{name}: negative dropped-entry count ({buffer.dropped_entries})"
        )
    if len(buffer) > buffer.capacity_entries:
        raise ContractViolationError(
            f"{name}: holds {len(buffer)} entries but only "
            f"{buffer.capacity_entries} fit under the {buffer.limit_bytes}B "
            f"limit register"
        )
    lines_per_region = buffer.geometry.lines_per_region
    for entry in buffer:
        check_metadata_entry(entry, lines_per_region, name=name)


def check_replay_counts(entries_replayed: int, recorded_entries: int,
                        lines_prefetched: int, duplicates_skipped: int,
                        unique_blocks: int) -> None:
    """Record/replay bookkeeping must agree: every recorded entry was
    replayed exactly once and every expanded line was either issued or
    de-duplicated."""
    if not _ENABLED:
        return
    if entries_replayed != recorded_entries:
        raise ContractViolationError(
            f"replay walked {entries_replayed} entries but the record phase "
            f"wrote {recorded_entries}"
        )
    if lines_prefetched != unique_blocks:
        raise ContractViolationError(
            f"replay issued {lines_prefetched} line fills but expanded "
            f"{unique_blocks} unique blocks"
        )
    if duplicates_skipped < 0:
        raise ContractViolationError(
            f"negative duplicate-line count ({duplicates_skipped})"
        )
