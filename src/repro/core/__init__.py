"""Jukebox: the paper's record-and-replay instruction prefetcher (Sec. 3),
plus the PIF comparison baseline (Sec. 5.5).

Names resolve lazily from the modules in :data:`_EXPORTS` (see
:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CRRB": "repro.core.crrb",
    "Entry": "repro.core.crrb",
    "Jukebox": "repro.core.jukebox",
    "JukeboxInvocationReport": "repro.core.jukebox",
    "JukeboxRecorder": "repro.core.recorder",
    "JukeboxReplayer": "repro.core.replayer",
    "MetadataBuffer": "repro.core.metadata",
    "PIF": "repro.core.pif",
    "PIFParams": "repro.core.pif",
    "PIFStats": "repro.core.pif",
    "RegionGeometry": "repro.core.regions",
    "ReplayStats": "repro.core.replayer",
    "collect_outcomes": "repro.core.replayer",
    "finalize_overprediction": "repro.core.replayer",
    "pif_ideal_params": "repro.core.pif",
    "record_miss_stream": "repro.core.recorder",
    "record_miss_stream_merging": "repro.core.recorder",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
