"""Deterministic fault injection for the sweep engine.

Real serverless platforms lose workers, hit flaky dependencies, and read
corrupted snapshots; a reproduction whose engine claims to survive the
same must be able to *cause* those failures on purpose, deterministically,
in tests and demos.  A :class:`FaultPlan` is a picklable set of
:class:`FaultSpec` records activated through
``engine.configure(faults=...)`` (or ``lukewarm-repro --inject-fault``):

* ``fail`` -- raise an injected error inside the worker executing a
  matching cell (transient by default, so retry policies can recover);
* ``kill`` -- hard-kill the pool worker (``os._exit``) dispatching a
  matching cell, exercising pool replacement.  Ignored outside pool
  workers, so a serial run of the same plan completes normally;
* ``corrupt`` -- overwrite the matching cell's result-cache entry with
  garbage before lookup, exercising the cache's evict-on-corruption path;
* ``hang`` -- wedge the worker executing a matching cell: with a
  ``<seconds>`` option it sleeps that long (anywhere), without one it
  livelocks forever -- but only inside daemonic pool workers, so the
  serial oracle of the same plan completes.  An unbounded hang is only
  survivable under a ``job_timeout_s`` guard, which is the point;
* ``slow`` -- sleep ``<seconds>`` (default 0.05) in the worker before the
  cell runs, for exercising deadline margins without wedging anything;
* ``enospc`` -- arm a one-shot ``OSError(ENOSPC)`` on the parent-side
  cache store of a matching cell, exercising degrade-to-no-store;
* ``torn`` -- truncate the matching cell's freshly stored cache entry
  mid-payload (a simulated crash between write and rename), exercising
  frame verification, quarantine, and ``fsck``.

Specs select cells by sweep submission index (``#3``), by job field
(``config=jukebox``), or match everything (``*``).  ``fail``/``slow`` faults fire while ``attempt < times`` and
``kill``/``hang`` faults while ``dispatch < times`` (``times=0`` means
always), so a default plan injects exactly one failure and a retried or
re-dispatched cell then succeeds -- every schedule is a pure function of
the plan.  ``corrupt``/``enospc``/``torn`` are parent-side disk faults
and fire on every match (``enospc`` degrades the cache after one shot
anyway).

Spec-string grammar (CLI)::

    ACTION ":" SELECTOR (":" OPTION)*
    ACTION   = fail | kill | corrupt | hang | slow | enospc | torn
    SELECTOR = #<index> | config=<name> | function=<abbrev>
             | provider=<module> | *
    OPTION   = x<times> | always | transient | permanent | <seconds>

Examples: ``fail:#3``, ``fail:config=jukebox:permanent``,
``fail:*:x2``, ``kill:#2``, ``corrupt:#0``, ``hang:#1`` (forever, pool
only), ``hang:#1:0.2`` (bounded), ``slow:*:0.1``, ``enospc:#0``,
``torn:#2``.
"""

from __future__ import annotations

import errno as _errno
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Tuple, Union

from repro.engine.resilience import (
    ERROR_CLASSES,
    PERMANENT,
    TRANSIENT,
    register_error_class,
)
from repro.errors import ConfigurationError, ReproError

#: Exit status a ``kill`` fault terminates its pool worker with.
KILL_EXIT_CODE = 86

_ACTIONS = ("fail", "kill", "corrupt", "hang", "slow", "enospc", "torn")
_FIELDS = ("config", "function", "provider")

#: Actions accepting a ``<seconds>`` option (``amount``).
_TIMED_ACTIONS = ("hang", "slow")

#: Default added delay (seconds) of a ``slow`` fault with no amount.
DEFAULT_SLOW_S = 0.05

#: Sleep quantum of an unbounded ``hang`` (re-slept forever; any value
#: works, the hung worker only ever exits by being killed).
_HANG_QUANTUM_S = 3600.0


class InjectedFaultError(ReproError):
    """Base class of errors raised by ``fail`` faults."""


class InjectedTransientError(InjectedFaultError):
    """An injected failure classified transient (retryable)."""


class InjectedPermanentError(InjectedFaultError):
    """An injected failure classified permanent (never retried)."""


register_error_class(InjectedTransientError, TRANSIENT)
register_error_class(InjectedPermanentError, PERMANENT)


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: what to do, to which cells, how often."""

    action: str
    index: Optional[int] = None
    field: Optional[str] = None
    value: Optional[str] = None
    #: Fire while the attempt (``fail``/``slow``) / dispatch
    #: (``kill``/``hang``) counter is below this; 0 means fire every time.
    times: int = 1
    #: Error class injected by ``fail`` faults.
    error: str = TRANSIENT
    #: Seconds for timed actions: hang duration (None = forever), slow
    #: delay (None = :data:`DEFAULT_SLOW_S`).
    amount: Optional[float] = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; expected one of "
                f"{', '.join(_ACTIONS)}")
        if self.field is not None and self.field not in _FIELDS:
            raise ConfigurationError(
                f"unknown fault selector field {self.field!r}; expected "
                f"one of {', '.join(_FIELDS)}")
        if self.times < 0:
            raise ConfigurationError(
                f"fault times must be >= 0 (0 = always), got {self.times}")
        if self.error not in ERROR_CLASSES:
            raise ConfigurationError(
                f"unknown injected error class {self.error!r}; expected "
                f"one of {', '.join(ERROR_CLASSES)}")
        if self.amount is not None:
            if self.action not in _TIMED_ACTIONS:
                raise ConfigurationError(
                    f"a seconds amount only applies to "
                    f"{' or '.join(_TIMED_ACTIONS)} faults, not "
                    f"{self.action!r}")
            if self.amount < 0:
                raise ConfigurationError(
                    f"fault seconds must be >= 0, got {self.amount}")

    @staticmethod
    def parse(spec: str) -> "FaultSpec":
        """Parse one CLI fault spec (see the module grammar)."""
        parts = [part.strip() for part in spec.split(":")]
        if len(parts) < 2 or not parts[0]:
            raise ConfigurationError(
                f"malformed fault spec {spec!r}; expected "
                f"ACTION:SELECTOR[:OPTION...] (e.g. 'fail:#3', 'kill:#2', "
                f"'fail:config=jukebox:always')")
        action, selector, options = parts[0], parts[1], parts[2:]
        index: Optional[int] = None
        fld: Optional[str] = None
        value: Optional[str] = None
        if selector.startswith("#"):
            try:
                index = int(selector[1:])
            except ValueError:
                raise ConfigurationError(
                    f"fault spec {spec!r}: selector {selector!r} is not a "
                    f"job index (#<int>)") from None
        elif "=" in selector:
            fld, _, value = selector.partition("=")
        elif selector != "*":
            raise ConfigurationError(
                f"fault spec {spec!r}: selector {selector!r} must be "
                f"#<index>, <field>=<value>, or '*'")
        times = 1
        error = TRANSIENT
        amount: Optional[float] = None
        for option in options:
            if option == "always":
                times = 0
            elif option.startswith("x"):
                try:
                    times = int(option[1:])
                except ValueError:
                    raise ConfigurationError(
                        f"fault spec {spec!r}: option {option!r} is not "
                        f"x<times>") from None
            elif option in ERROR_CLASSES:
                error = option
            else:
                try:
                    amount = float(option)
                except ValueError:
                    raise ConfigurationError(
                        f"fault spec {spec!r}: unknown option {option!r}; "
                        f"expected x<times>, 'always', <seconds>, "
                        f"{' or '.join(repr(c) for c in ERROR_CLASSES)}"
                    ) from None
        return FaultSpec(action=action, index=index, field=fld, value=value,
                         times=times, error=error, amount=amount)

    def matches(self, job: Any, index: int) -> bool:
        if self.index is not None:
            return index == self.index
        if self.field is not None:
            return str(getattr(job, self.field)) == self.value
        return True

    def fires(self, count: int) -> bool:
        return self.times == 0 or count < self.times

    def make_error(self, job: Any, index: int, attempt: int) -> InjectedFaultError:
        exc_type = (InjectedTransientError if self.error == TRANSIENT
                    else InjectedPermanentError)
        return exc_type(
            f"injected {self.error} fault on cell #{index} "
            f"({job.describe()}), attempt {attempt}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable collection of fault specs.

    The plan travels inside each :class:`~repro.engine.resilience.Task`
    to pool workers, so its decisions are identical whichever process
    asks.
    """

    specs: Tuple[FaultSpec, ...] = ()

    @staticmethod
    def coerce(faults: Union["FaultPlan", FaultSpec, str,
                             Iterable[Union[FaultSpec, str]], None],
               ) -> Optional["FaultPlan"]:
        """Normalize user input (plan, spec(s), string(s)) into a plan."""
        if faults is None or isinstance(faults, FaultPlan):
            return faults
        if isinstance(faults, (FaultSpec, str)):
            faults = (faults,)
        specs = tuple(FaultSpec.parse(s) if isinstance(s, str) else s
                      for s in faults)
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"fault plans hold FaultSpec entries, got {spec!r}")
        return FaultPlan(specs=specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def on_execute(self, job: Any, index: int, attempt: int,
                   dispatch: int) -> None:
        """Worker-side hook: kill, hang, slow, or fail the dispatch.

        ``kill`` faults -- and *unbounded* ``hang`` faults, which are
        lethal in the same way -- only act inside daemonic pool workers:
        a serial run of the same plan (the bit-identical oracle in tests)
        ignores them rather than killing or wedging the main process.
        Bounded hangs and ``slow`` delays run anywhere.
        """
        for spec in self.specs:
            if (spec.action == "kill" and spec.matches(job, index)
                    and spec.fires(dispatch)
                    and multiprocessing.current_process().daemon):
                os._exit(KILL_EXIT_CODE)
        for spec in self.specs:
            if (spec.action == "hang" and spec.matches(job, index)
                    and spec.fires(dispatch)):
                if spec.amount is not None:
                    time.sleep(spec.amount)
                elif multiprocessing.current_process().daemon:
                    while True:  # reaped only by the deadline guard
                        time.sleep(_HANG_QUANTUM_S)
        for spec in self.specs:
            if (spec.action == "slow" and spec.matches(job, index)
                    and spec.fires(attempt)):
                time.sleep(spec.amount if spec.amount is not None
                           else DEFAULT_SLOW_S)
        for spec in self.specs:
            if (spec.action == "fail" and spec.matches(job, index)
                    and spec.fires(attempt)):
                raise spec.make_error(job, index, attempt)

    def should_corrupt(self, job: Any, index: int) -> bool:
        """Whether the cell's cache entry should be corrupted pre-lookup."""
        return any(spec.action == "corrupt" and spec.matches(job, index)
                   for spec in self.specs)

    def store_errno(self, job: Any, index: int) -> Optional[int]:
        """Errno to arm on the cell's parent-side cache store, or None.

        The ``enospc`` disk fault: the sweep layer passes this to
        :meth:`~repro.engine.cache.ResultCache.induce_store_error` so the
        next ``put`` fails with a real ``OSError`` and the cache walks
        its genuine degradation path.
        """
        for spec in self.specs:
            if spec.action == "enospc" and spec.matches(job, index):
                return _errno.ENOSPC
        return None

    def should_tear(self, job: Any, index: int) -> bool:
        """Whether the cell's freshly stored entry should be torn.

        The ``torn`` disk fault: applied by the sweep layer *after* a
        successful store, leaving exactly what a crash between write and
        rename leaves -- a frame whose payload is cut short.
        """
        return any(spec.action == "torn" and spec.matches(job, index)
                   for spec in self.specs)


def parse_fault_plan(specs: Iterable[str]) -> FaultPlan:
    """Parse CLI ``--inject-fault`` spec strings into one plan."""
    return FaultPlan.coerce(tuple(specs)) or FaultPlan()
