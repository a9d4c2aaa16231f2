"""The stable public simulation entry point.

:func:`simulate` is the one call every consumer -- ``experiments/``,
``server/``, ``engine/`` workers, tests -- goes through to execute an
:class:`~repro.workloads.trace.InvocationTrace` (built with
:class:`~repro.workloads.trace.TraceBuilder`) on a machine:

>>> from repro.sim import simulate, skylake
>>> result = simulate(trace, skylake())            # doctest: +SKIP
>>> result = simulate(trace, skylake(), backend="scalar")  # doctest: +SKIP

For experiment protocols that carry microarchitectural state across
invocations (warm reference runs, Jukebox record/replay), construct one
:class:`~repro.sim.core.Simulator` up front and pass it as ``sim=``; the
machine and backend then live on the simulator:

>>> sim = Simulator(machine, backend="columnar")   # doctest: +SKIP
>>> for trace in traces:                           # doctest: +SKIP
...     result = simulate(trace, sim=sim)

Backend choice never changes results -- ``"columnar"`` and ``"scalar"``
are bit-identical by contract -- only throughput (DESIGN.md Sec. 12).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.sim.core import InvocationResult, Simulator
from repro.sim.params import MachineParams
from repro.workloads.trace import InvocationTrace


def simulate(trace: InvocationTrace,
             machine: Optional[MachineParams] = None,
             *,
             backend: Optional[str] = None,
             sim: Optional[Simulator] = None) -> InvocationResult:
    """Execute one invocation trace; returns its measurements.

    Either pass ``machine`` (a fresh, cold :class:`Simulator` is built,
    ``backend`` defaulting to ``"columnar"``) or pass an existing ``sim``
    to reuse its warm state.  Passing both ``sim`` and ``machine`` -- or
    ``sim`` plus a conflicting ``backend`` -- is a configuration error:
    the simulator already owns those choices.
    """
    if sim is not None:
        if machine is not None:
            raise ConfigurationError(
                "pass either machine= or sim=, not both: the simulator "
                "already owns its machine parameters"
            )
        if backend is not None and backend != sim.backend:
            raise ConfigurationError(
                f"backend={backend!r} conflicts with the provided "
                f"simulator's backend={sim.backend!r}"
            )
        return sim.run(trace)
    if machine is None:
        raise ConfigurationError("simulate() needs machine= or sim=")
    built = Simulator(machine,
                      backend=backend if backend is not None else "columnar")
    return built.run(trace)
