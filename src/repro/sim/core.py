"""The analytic core timing model.

:class:`Simulator` executes an :class:`repro.workloads.trace.InvocationTrace`
against a :class:`repro.sim.hierarchy.MemoryHierarchy`, charging cycles to
Top-Down categories (DESIGN.md Sec. 3):

* ``retiring``       — instructions / issue width;
* ``fetch_latency``  — charged instruction-miss latencies, I-TLB walks and
  BTB-cold fetch bubbles (the in-order front-end cannot hide these);
* ``fetch_bandwidth``— taken-branch fetch-group fragmentation;
* ``bad_speculation``— direction mispredicts x pipeline refill penalty;
* ``backend_bound``  — charged data-miss latencies (partially hidden by the
  out-of-order back-end) plus D-TLB walks.

The model is trace-driven and deterministic.  It is *not* a cycle-accurate
out-of-order pipeline; overlap between misses and execution is captured by
the per-class stall factors in :class:`repro.sim.params.CoreParams`, which
are calibrated against the paper's reported aggregates (see DESIGN.md
Sec. 5 and EXPERIMENTS.md).

Two execution backends share this model (DESIGN.md Sec. 12):

* ``"scalar"`` -- the event-at-a-time reference interpreter in
  :meth:`Simulator._run_scalar`;
* ``"columnar"`` -- the vectorized interpreter in :mod:`repro.sim.batch`,
  which consumes the trace's columnar IR and is required to reproduce the
  scalar results *bit for bit* (enforced by the differential battery).

:meth:`Simulator.run` executes one trace; a simulator keeps its
microarchitectural state across runs, so a one-shot cold run is
``Simulator(machine).run(trace)``.  What an invocation measured,
:class:`~repro.sim.result.InvocationResult`, lives in
:mod:`repro.sim.result` so cached results load without this module.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigurationError
from repro.lint import contracts
from repro.sim import batch
from repro.sim.branch import BTB, SiteBranchModel
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.params import MachineParams
from repro.sim.result import BACKENDS, InvocationResult
from repro.sim.topdown import TopDownBreakdown
from repro.workloads.trace import (
    BRANCH,
    IFETCH,
    LOAD,
    STORE,
    InvocationTrace,
)


class Simulator:
    """Single-core analytic model with pluggable prefetchers.

    ``backend`` selects the execution strategy: ``"columnar"`` (default)
    runs the vectorized interpreter over the trace's columnar IR,
    ``"scalar"`` runs the event-at-a-time reference.  Both produce
    byte-identical results and state by contract.
    """

    def __init__(self, machine: MachineParams,
                 backend: str = "columnar") -> None:
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown simulation backend {backend!r}; "
                f"expected one of {', '.join(BACKENDS)}"
            )
        self.backend = backend
        self.machine = machine
        self.hierarchy = MemoryHierarchy(machine)
        self.btb = BTB(machine.core)
        self.branches = SiteBranchModel(self.btb)
        self._width = machine.core.issue_width
        self._taken_penalty = machine.core.taken_branch_penalty
        self._mispredict_penalty = machine.core.mispredict_penalty
        self._btb_penalty = machine.core.btb_miss_penalty
        self._f_onchip = machine.core.inst_stall_onchip
        self._l2_lat = machine.l2.latency

    # ------------------------------------------------------------------

    def flush_microarch_state(self) -> None:
        """Obliterate all on-chip state: the lukewarm baseline (Sec. 5.2)."""
        self.hierarchy.flush_caches()
        self.branches.flush()

    def run(self, trace: InvocationTrace) -> InvocationResult:
        """Execute one invocation, starting at cycle 0; returns its
        measurements.  Dispatches to the configured backend.
        """
        if self.backend == "columnar":
            return batch.run_columnar(self, trace)
        return self._run_scalar(trace)

    def _run_scalar(self, trace: InvocationTrace) -> InvocationResult:
        """The event-at-a-time reference interpreter.

        This loop *defines* the model's semantics; the columnar backend
        must reproduce it bit for bit and falls back to the same hierarchy
        methods wherever a bulk precondition does not hold.
        """
        hier = self.hierarchy
        td = TopDownBreakdown()
        access_instr = hier.access_instr
        access_data = hier.access_data
        width = self._width
        taken_penalty = self._taken_penalty
        sources: Dict[str, int] = {}
        instructions = 0
        mispredicts = 0.0
        bubbles = 0
        cycle = 0.0

        stats_before = hier.stats.snapshot()
        kinds = trace.kinds
        addrs = trace.addrs
        args = trace.args
        args2 = trace.args2
        loops = trace.loops

        for i in range(len(kinds)):
            kind = kinds[i]
            if kind == IFETCH:
                addr = int(addrs[i])
                insts = int(args[i])
                stall, level = access_instr(addr, cycle)
                sources[level] = sources.get(level, 0) + 1
                retire = insts / width
                fb = int(args2[i]) * taken_penalty
                td.fetch_latency += stall
                td.retiring += retire
                td.fetch_bandwidth += fb
                instructions += insts
                cycle += stall + retire + fb
            elif kind == LOAD or kind == STORE:
                stall, _level = access_data(int(addrs[i]), kind == STORE, cycle)
                td.backend_bound += stall
                cycle += stall
            elif kind == BRANCH:
                execs = int(args[i])
                p = int(args2[i]) / 255.0
                mis, bub = self.branches.execute_site(int(addrs[i]), execs, p)
                mispredicts += mis
                bubbles += bub
                spec = mis * self._mispredict_penalty
                fetch = bub * self._btb_penalty
                td.bad_speculation += spec
                td.fetch_latency += fetch
                cycle += spec + fetch
            else:  # LOOP
                spec = loops[int(args[i])]
                cycle = self._run_loop(spec, td, sources, cycle)
                instructions += spec.total_insts
                # Loop-exit mispredict.
                mispredicts += 1
                td.bad_speculation += self._mispredict_penalty
                cycle += self._mispredict_penalty

        result = InvocationResult(
            instructions=instructions,
            topdown=td,
            stats=hier.stats.delta(stats_before),
            fetch_sources=sources,
            mispredicts=mispredicts,
            btb_bubbles=bubbles,
        )
        # Runtime contract: every invocation leaves balanced counters and a
        # Top-Down breakdown whose components sum to the total (repro.lint).
        contracts.check_invocation(result)
        return result

    def _run_loop(self, spec, td: TopDownBreakdown,
                  sources: Dict[str, int], cycle: float) -> float:
        """Execute a tight loop: first pass through the hierarchy, the
        remaining passes analytically (see trace-format docs)."""
        hier = self.hierarchy
        width = self._width
        blocks = spec.blocks
        n_blocks = len(blocks)
        insts_per_block = max(1.0, spec.insts_per_iteration / n_blocks)

        for addr in blocks:
            stall, level = hier.access_instr(addr, cycle)
            sources[level] = sources.get(level, 0) + 1
            step = stall + insts_per_block / width
            td.fetch_latency += stall
            td.retiring += insts_per_block / width
            cycle += step

        remaining = spec.iterations - 1
        if remaining > 0:
            retire = remaining * spec.insts_per_iteration / width
            fb = remaining * spec.branches_per_iteration * self._taken_penalty
            td.retiring += retire
            td.fetch_bandwidth += fb
            cycle += retire + fb
            if spec.body_bytes > hier.machine.l1i.size:
                # The body does not fit in the L1-I: every pass re-fetches
                # from the L2 (where the first pass installed it).
                steady = remaining * n_blocks * self._l2_lat * self._f_onchip
                td.fetch_latency += steady
                cycle += steady
        return cycle

