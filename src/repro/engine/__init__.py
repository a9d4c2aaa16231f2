"""``repro.engine``: the parallel sweep engine with result memoization.

The engine turns every simulation cell the experiments need -- one
(function x machine x RunConfig x config) combination -- into a
declarative, picklable :class:`Job`, executes batches through a pluggable
executor (serial, or a ``multiprocessing`` pool via ``--jobs N``) with
deterministic result ordering, and memoizes results in a
content-addressed on-disk :class:`ResultCache` keyed by a stable hash of
every input plus a digest of the package's sources.

Execution is failure-aware: each cell resolves to a typed
:class:`JobOutcome` (:func:`sweep_outcomes`; :func:`sweep` unwraps them
and re-raises the first failure), transient failures retry up to a
:class:`FailurePolicy`'s count with deterministic seeded backoff,
pool-worker crashes re-dispatch the unfinished frontier to a fresh pool
(degrading to serial after repeated crashes), and completed
cells are checkpointed into the cache as they finish so aborted sweeps
resume warm.  The :mod:`repro.engine.guard` layer adds *time* bounds on
top: ``job_timeout_s`` kills hung workers (the cell becomes a transient
:class:`JobTimeoutError` and retries per policy), ``sweep_deadline_s``
fails whatever a batch could not finish in budget.  The cache is
crash-durable -- framed, digest-verified entries; quarantine-and-
recompute on damage; a cross-process advisory lock; degrade-to-no-store
on disk errors -- and ``python -m repro.engine fsck`` audits or repairs
a cache directory offline.  The :mod:`repro.faults` harness injects
failures (crashes, hangs, torn writes, full disks) deterministically
for tests and ``--inject-fault``.

Typical use from an experiment module::

    from repro.engine import sweep_configs

    runs = sweep_configs(profiles, machine, cfg, ("baseline", "jukebox"))
    base = runs["Auth-G"]["baseline"]

and from the CLI layer::

    with engine.configure(jobs=4, cache_dir=path, clock=time.perf_counter):
        ...   # every sweep below fans out over 4 workers, memoized
"""

from repro.engine.cache import (
    CacheEntryError,
    CacheLock,
    ResultCache,
    check_entry,
    decode_entry,
    encode_entry,
)
from repro.engine.guard import (
    GuardSpec,
    GuardState,
    JobTimeoutError,
    SweepDeadlineError,
)
from repro.engine.executors import (
    MAX_POOL_FAILURES,
    ProcessExecutor,
    SerialExecutor,
    execute_job,
    get_executor,
)
from repro.engine.job import (
    DEFAULT_PROVIDER,
    Job,
    SCHEMA_VERSION,
    canonicalize,
    fingerprint,
    invalidate_fingerprint_caches,
    source_digest,
)
from repro.engine.resilience import (
    ERROR_CLASSES,
    PERMANENT,
    TRANSIENT,
    FailurePolicy,
    JobError,
    JobOutcome,
    Task,
    backoff_delay,
    classify_error,
    execute_task,
    register_error_class,
    run_with_policy,
)
from repro.engine.sweep import (
    EngineContext,
    SweepStats,
    configure,
    current_context,
    sweep,
    sweep_configs,
    sweep_outcomes,
)

__all__ = [
    "CacheEntryError",
    "CacheLock",
    "DEFAULT_PROVIDER",
    "ERROR_CLASSES",
    "EngineContext",
    "FailurePolicy",
    "GuardSpec",
    "GuardState",
    "Job",
    "JobError",
    "JobOutcome",
    "JobTimeoutError",
    "MAX_POOL_FAILURES",
    "PERMANENT",
    "ProcessExecutor",
    "ResultCache",
    "SCHEMA_VERSION",
    "SerialExecutor",
    "SweepDeadlineError",
    "SweepStats",
    "TRANSIENT",
    "Task",
    "backoff_delay",
    "check_entry",
    "decode_entry",
    "encode_entry",
    "canonicalize",
    "classify_error",
    "configure",
    "current_context",
    "execute_job",
    "execute_task",
    "fingerprint",
    "get_executor",
    "invalidate_fingerprint_caches",
    "register_error_class",
    "run_with_policy",
    "source_digest",
    "sweep",
    "sweep_configs",
    "sweep_outcomes",
]
