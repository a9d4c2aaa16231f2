"""One module per paper table/figure (see DESIGN.md Sec. 4 for the index).

Every experiment module exposes ``run(cfg, machine=None, functions=None)``
returning a structured result, plus ``render(result)`` returning the
plain-text table/series the paper reports.  ``runner`` provides the
``lukewarm-repro`` CLI over all of them.

Names resolve lazily from the modules in :data:`_EXPORTS`: the config
registry in :mod:`~repro.experiments.common` loads the simulator, the
run scale and result types in :mod:`~repro.experiments.scale` do not.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CONFIGS": "repro.experiments.common",
    "RunConfig": "repro.experiments.scale",
    "SequenceResult": "repro.experiments.scale",
    "config_names": "repro.experiments.common",
    "register_config": "repro.experiments.common",
    "run_config": "repro.experiments.common",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
