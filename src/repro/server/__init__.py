"""Server-level substrate: warm-instance pools under a fixed keep-alive
TTL, arrival-driven interleaving, a scalar cold-start charge, and
microarchitectural stressors (Sec. 2.2)."""

from repro.server.instance import WarmInstance
from repro.server.server import ServerConfig, ServerSimulator, ServerStats
from repro.server.stressor import Stressor

__all__ = [
    "ServerConfig",
    "ServerSimulator",
    "ServerStats",
    "Stressor",
    "WarmInstance",
]
