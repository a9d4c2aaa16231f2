"""Jukebox: the paper's record-and-replay instruction prefetcher (Sec. 3),
plus the PIF comparison baseline (Sec. 5.5)."""

from repro.core.crrb import CRRB, Entry
from repro.core.jukebox import Jukebox, JukeboxInvocationReport
from repro.core.metadata import MetadataBuffer, unbounded_metadata_size_bytes
from repro.core.pif import PIF, PIFParams, PIFStats, pif_ideal_params
from repro.core.recorder import (
    JukeboxRecorder,
    record_miss_stream,
    record_miss_stream_merging,
)
from repro.core.regions import RegionGeometry
from repro.core.replayer import (
    JukeboxReplayer,
    ReplayStats,
    collect_outcomes,
    finalize_overprediction,
)

__all__ = [
    "CRRB",
    "Entry",
    "Jukebox",
    "JukeboxInvocationReport",
    "JukeboxRecorder",
    "JukeboxReplayer",
    "MetadataBuffer",
    "PIF",
    "PIFParams",
    "PIFStats",
    "RegionGeometry",
    "ReplayStats",
    "collect_outcomes",
    "finalize_overprediction",
    "pif_ideal_params",
    "record_miss_stream",
    "record_miss_stream_merging",
    "unbounded_metadata_size_bytes",
]
