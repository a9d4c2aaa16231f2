"""Serverless function workload models (the containerized-function
substrate, Table 2).

Names resolve lazily from the modules in :data:`_EXPORTS`, so the suite
and profiles (``repro.workloads.suite``) load without the numpy trace
generator.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BY_ABBREV": "repro.workloads.suite",
    "CodeLayout": "repro.workloads.layout",
    "CodeSegment": "repro.workloads.layout",
    "FunctionModel": "repro.workloads.function",
    "FunctionProfile": "repro.workloads.profiles",
    "InvocationTrace": "repro.workloads.trace",
    "LANG_GO": "repro.workloads.profiles",
    "LANG_NODEJS": "repro.workloads.profiles",
    "LANG_PYTHON": "repro.workloads.profiles",
    "LANGUAGES": "repro.workloads.profiles",
    "LoopSpec": "repro.workloads.trace",
    "REPRESENTATIVES": "repro.workloads.suite",
    "SUITE": "repro.workloads.suite",
    "TraceBuilder": "repro.workloads.trace",
    "build_layout": "repro.workloads.layout",
    "build_suite": "repro.workloads.suite",
    "get_profile": "repro.workloads.suite",
    "suite_subset": "repro.workloads.suite",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
