"""Exception hierarchy for the reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A machine, cache, or prefetcher configuration is invalid."""


class TraceError(ReproError):
    """An invocation trace is malformed or inconsistent."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


class ContractViolationError(SimulationError):
    """A runtime invariant checked by :mod:`repro.lint.contracts` failed.

    Raised when a statistics object, cache, or metadata buffer is caught in
    a state that the simulator's accounting can never legally produce
    (e.g. hits + misses != accesses, a duplicate tag within a cache set, or
    a metadata buffer holding more entries than its byte limit allows).
    """


class TraceSchemaError(ReproError):
    """A trace record violates the :mod:`repro.obs` schema.

    Raised when an event is emitted with an unknown kind or a non-scalar
    payload, or when a trace file read back for summarization contains a
    malformed or version-mismatched record.
    """


class SweepFailure(ReproError):
    """A sweep cell failed and its original exception could not be
    re-raised directly (e.g. the worker-side exception was unpicklable).

    The message embeds the cell's identity, attempt count, and the remote
    traceback captured by :class:`repro.engine.resilience.JobError`.
    """

