"""Typed, picklable trace records and their JSON schema.

A trace is a sequence of :class:`TraceEvent` values: one flat record per
observable engine action, ordered by a per-tracer ``seq`` counter.  The
vocabulary is closed (:data:`KINDS`) so downstream tooling -- the
:mod:`repro.obs.summarize` aggregator, the golden-trace tests -- can rely
on every record meaning exactly one thing:

========================  ==================================================
kind                      emitted when
========================  ==================================================
``sweep.begin/end``       :func:`repro.engine.sweep_outcomes` starts /
                          finishes one batch (the end record carries the
                          batch's counter deltas)
``cache.hit/miss``        a :class:`~repro.engine.cache.ResultCache` lookup
``cache.store``           a completed cell is checkpointed
``cache.evict``           a stale/corrupt entry is dropped on read
``cache.corrupt``         a ``corrupt`` fault overwrote an entry
``executor.dispatch``     a task is submitted to the executor for one round
``executor.harvest``      a task's attempt completed (success or failure)
``executor.pool_death``   a pool worker exited non-zero; frontier
                          re-dispatched
``executor.degrade``      repeated crashes degraded the pool to serial
``retry.backoff``         a transient failure was scheduled for retry
``job.deadline``          a dispatch (or the whole sweep) exceeded its
                          guard deadline
``worker.kill``           the guard terminated a pool to reap a hung
                          worker
``cache.lock``            the advisory cross-process cache lock was
                          acquired or released
``cache.quarantine``      a corrupt/torn entry was moved aside for
                          recompute (``fsck`` can inspect it later)
``cache.store_failed``    a cache store hit an I/O error; the sweep
                          degraded to no-store mode
========================  ==================================================

Result values (a fleet region's counters, a spectrum point's latency
split) are not traced: the reports print them, and the ``sweep.*`` and
``executor.*`` records already bracket the sweeps that computed them.
Nor is ``repro.engine fsck``: its report lists every action it took.

Determinism rules: ``seq`` and every payload field are pure functions of
the run's inputs; the *only* nondeterministic field is ``t``, which comes
exclusively from the tracer's injected clock (``None`` when no clock is
configured).  Two runs with identical inputs therefore produce identical
traces modulo ``t`` -- the invariant the regression tests pin.

Records are frozen dataclasses whose payload is a sorted tuple of
``(name, value)`` pairs, so they pickle, hash, and compare structurally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import TraceSchemaError

#: Bumped whenever the record layout changes incompatibly.
SCHEMA_VERSION = 1

# -- The closed event vocabulary -------------------------------------------

SWEEP_BEGIN = "sweep.begin"
SWEEP_END = "sweep.end"
CACHE_HIT = "cache.hit"
CACHE_MISS = "cache.miss"
CACHE_STORE = "cache.store"
CACHE_EVICT = "cache.evict"
CACHE_CORRUPT = "cache.corrupt"
DISPATCH = "executor.dispatch"
HARVEST = "executor.harvest"
POOL_DEATH = "executor.pool_death"
POOL_DEGRADE = "executor.degrade"
RETRY = "retry.backoff"
JOB_DEADLINE = "job.deadline"
WORKER_KILL = "worker.kill"
CACHE_LOCK = "cache.lock"
CACHE_QUARANTINE = "cache.quarantine"
CACHE_STORE_FAILED = "cache.store_failed"

KINDS = frozenset({
    SWEEP_BEGIN, SWEEP_END,
    CACHE_HIT, CACHE_MISS, CACHE_STORE, CACHE_EVICT, CACHE_CORRUPT,
    CACHE_LOCK, CACHE_QUARANTINE, CACHE_STORE_FAILED,
    DISPATCH, HARVEST, POOL_DEATH, POOL_DEGRADE,
    RETRY,
    JOB_DEADLINE, WORKER_KILL,
})

#: Top-level JSON keys that payload fields may not shadow.
_RESERVED_KEYS = frozenset({"schema", "seq", "kind", "t"})

#: Scalar types a payload field may carry (traces are JSON, not pickles).
_SCALAR_TYPES = (bool, int, float, str)


@dataclass(frozen=True)
class TraceEvent:
    """One observable engine action, in picklable, JSON-stable form."""

    seq: int
    kind: str
    #: Injected-clock reading at emission; ``None`` without a clock.  This
    #: is the only field allowed to differ between identical runs.
    t: Optional[float] = None
    fields: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def make(seq: int, kind: str, t: Optional[float] = None,
             **fields: Any) -> "TraceEvent":
        """Build a validated event; payload keys are sorted for stability."""
        event = TraceEvent(seq=seq, kind=kind, t=t,
                           fields=tuple(sorted(fields.items())))
        validate_event(event.to_json())
        return event

    def fields_dict(self) -> Dict[str, Any]:
        return dict(self.fields)

    def to_json(self) -> Dict[str, Any]:
        """The canonical flat JSON form (one trace-file line)."""
        record: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "seq": self.seq,
            "kind": self.kind,
            "t": self.t,
        }
        record.update(self.fields)
        return record

    def to_jsonl(self) -> str:
        """One canonical JSONL line (sorted keys, compact separators)."""
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))

    @staticmethod
    def from_json(record: Mapping[str, Any]) -> "TraceEvent":
        """Parse (and schema-validate) one trace-file record."""
        validate_event(record)
        fields = tuple(sorted(
            (k, v) for k, v in record.items() if k not in _RESERVED_KEYS))
        return TraceEvent(seq=record["seq"], kind=record["kind"],
                          t=record["t"], fields=fields)


def validate_event(record: Any) -> None:
    """Schema-validate one flat record; raise :class:`TraceSchemaError`.

    Checks the envelope (schema version, monotonic-friendly ``seq``, a
    known ``kind``, a numeric-or-null ``t``) and that every payload field
    is a JSON scalar under a non-reserved string key -- the guarantees
    :mod:`repro.obs.summarize` and the golden-trace tests build on.
    """
    if not isinstance(record, Mapping):
        raise TraceSchemaError(
            f"trace record must be a JSON object, got "
            f"{type(record).__name__}")
    for key in ("schema", "seq", "kind"):
        if key not in record:
            raise TraceSchemaError(f"trace record is missing {key!r}: "
                                   f"{dict(record)!r}")
    if record["schema"] != SCHEMA_VERSION:
        raise TraceSchemaError(
            f"trace schema {record['schema']!r} is not the supported "
            f"version {SCHEMA_VERSION}")
    seq = record["seq"]
    if not (isinstance(seq, int) and not isinstance(seq, bool)) or seq < 0:
        raise TraceSchemaError(f"trace seq must be a non-negative integer, "
                               f"got {seq!r}")
    kind = record["kind"]
    if kind not in KINDS:
        raise TraceSchemaError(
            f"unknown trace event kind {kind!r}; expected one of "
            f"{', '.join(sorted(KINDS))}")
    t = record.get("t")
    if t is not None and not isinstance(t, (int, float)):
        raise TraceSchemaError(f"trace t must be a number or null, got {t!r}")
    for key, value in record.items():
        if key in _RESERVED_KEYS:
            continue
        if not isinstance(key, str):
            raise TraceSchemaError(f"trace field key {key!r} must be a string")
        if value is not None and not isinstance(value, _SCALAR_TYPES):
            raise TraceSchemaError(
                f"trace field {key!r} must be a JSON scalar, got "
                f"{type(value).__name__}")
