"""Determinism & invariant analysis for the reproduction.

Three layers keep the simulator trustworthy:

* **per-file static rules** (:mod:`repro.lint.rules`, run by
  :mod:`repro.lint.engine` and ``python -m repro.lint``): AST checks
  REPRO001-REPRO008 and REPRO011 for unseeded randomness, float
  equality, magic size/latency literals, mutable defaults, swallowed
  exceptions, wall-clock reads in simulation paths, broad exception
  handlers in engine code outside the sanctioned resilience capture
  point, module-level observability singletons and unbounded blocking
  waits in engine code;
* **whole-program analysis** (:mod:`repro.lint.graph` builds an
  AST-only import + call graph; :mod:`repro.lint.flow` runs an
  interprocedural nondeterminism taint analysis over it;
  :mod:`repro.lint.soundness` audits worker safety [REPRO010,
  picklable pool-boundary classes, no worker-reachable module-state
  mutation]);
* **runtime contracts** (:mod:`repro.lint.contracts`): cheap invariant
  checks wired into the simulator's lifecycle points -- stats balance,
  Top-Down components sum to total cycles, metadata record counts match
  replayed counts, sweep-engine counters stay consistent even when a
  sweep aborts mid-batch.

Suppress a static finding inline with
``# repro-lint: disable=REPRO003 -- reason`` (or ``disable=all``), or
file-wide with ``# repro-lint: disable-file=REPRO003``.  There is no
baseline of forgiven findings: ``python -m repro.lint`` fails on any
finding, warnings included.

This package root imports nothing: the simulator imports
:mod:`repro.lint.contracts` on every run, and must not load the analyzer
with it.  Import each name from the submodule that defines it.
"""
