"""Library-initialization cost model (ColdSpy calibration).

ColdSpy instruments serverless runtimes and finds cold-start
initialization dominated by *eagerly imported but unused* libraries:
trimming them yields up to a 2.26x cold-start speedup.  This module
encodes that finding as a per-runtime import graph of the libraries
imported at boot, each classified:

* ``eager-used``   -- needed on the request path;
* ``eager-unused`` -- never touched by the handler (the trimming
  opportunity).

:func:`ImportGraph.init_cost_ms` is what a
:class:`~repro.coldstart.model.SpectrumColdStart` charges per cold
boot; the ``trim`` knob drops the eager-unused class.  Costs are fixed
calibrated constants -- pure data, no measurement at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.workloads.profiles import LANGUAGES

USAGE_EAGER_USED = "eager-used"
USAGE_EAGER_UNUSED = "eager-unused"
USAGE_CLASSES = (USAGE_EAGER_USED, USAGE_EAGER_UNUSED)


@dataclass(frozen=True)
class Library:
    """One node of a runtime's import graph."""

    name: str
    init_ms: float
    usage: str

    def __post_init__(self) -> None:
        if self.usage not in USAGE_CLASSES:
            raise ConfigurationError(
                f"{self.name}: unknown usage class {self.usage!r}; "
                f"expected one of {', '.join(USAGE_CLASSES)}")
        if not math.isfinite(self.init_ms) or self.init_ms < 0:
            raise ConfigurationError(
                f"{self.name}: init_ms must be finite and >= 0, got "
                f"{self.init_ms}")


@dataclass(frozen=True)
class ImportGraph:
    """A runtime's boot-time import graph and its trimming arithmetic."""

    language: str
    #: Interpreter / VM bring-up before any library imports.
    base_ms: float
    libraries: Tuple[Library, ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.base_ms) or self.base_ms < 0:
            raise ConfigurationError(
                f"{self.language}: base_ms must be finite and >= 0, got "
                f"{self.base_ms}")

    def _usage_ms(self, usage: str) -> float:
        return sum(lib.init_ms for lib in self.libraries
                   if lib.usage == usage)

    @property
    def eager_used_ms(self) -> float:
        return self._usage_ms(USAGE_EAGER_USED)

    @property
    def eager_unused_ms(self) -> float:
        return self._usage_ms(USAGE_EAGER_UNUSED)

    def init_cost_ms(self, trim: bool = False) -> float:
        """Boot-path initialization cost; ``trim`` drops eager-unused."""
        cost = self.base_ms + self.eager_used_ms
        if not trim:
            cost += self.eager_unused_ms
        return cost


#: Calibrated per-runtime graphs.  Library names are representative of
#: the deployments ColdSpy profiles; costs are scaled so each
#: language's trim speedup lands inside the measured range, with Python
#: near ColdSpy's 2.26x ceiling and Go (static binaries, thin runtime)
#: near parity; a unit test pins them inside it.
_GRAPHS: Dict[str, ImportGraph] = {
    "python": ImportGraph(
        language="python",
        base_ms=62.0,
        libraries=(
            Library("boto3", 88.0, USAGE_EAGER_USED),
            Library("stdlib-core", 18.0, USAGE_EAGER_USED),
            Library("pandas", 92.0, USAGE_EAGER_UNUSED),
            Library("numpy", 86.0, USAGE_EAGER_UNUSED),
            Library("requests", 24.0, USAGE_EAGER_UNUSED),
        ),
    ),
    "nodejs": ImportGraph(
        language="nodejs",
        base_ms=48.0,
        libraries=(
            Library("aws-sdk", 72.0, USAGE_EAGER_USED),
            Library("express", 26.0, USAGE_EAGER_USED),
            Library("moment", 38.0, USAGE_EAGER_UNUSED),
            Library("lodash", 22.0, USAGE_EAGER_UNUSED),
        ),
    ),
    "go": ImportGraph(
        language="go",
        base_ms=6.0,
        libraries=(
            Library("aws-sdk-go", 9.0, USAGE_EAGER_USED),
            Library("protobuf", 3.0, USAGE_EAGER_UNUSED),
            Library("zap", 2.0, USAGE_EAGER_UNUSED),
        ),
    ),
}

assert set(_GRAPHS) == set(LANGUAGES)


def import_graph_for(language: str) -> ImportGraph:
    """The calibrated import graph of ``language``."""
    try:
        return _GRAPHS[language]
    except KeyError:
        raise ConfigurationError(
            f"no import graph for language {language!r}; expected one of "
            f"{', '.join(sorted(_GRAPHS))}") from None
