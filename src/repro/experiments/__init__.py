"""One module per paper table/figure (see DESIGN.md Sec. 4 for the index).

Every experiment module exposes ``run(cfg, machine=None, functions=None)``
returning a structured result, plus ``render(result)`` returning the
plain-text table/series the paper reports.  ``runner`` provides the
``lukewarm-repro`` CLI over all of them.
"""

from repro.experiments.common import (
    CONFIGS,
    RunConfig,
    SequenceResult,
    config_names,
    register_config,
    run_all_configs,
    run_config,
)

__all__ = [
    "CONFIGS",
    "RunConfig",
    "SequenceResult",
    "config_names",
    "register_config",
    "run_all_configs",
    "run_config",
]
