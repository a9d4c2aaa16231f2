"""The columnar backend's bulk walk classes fire on real traces.

The differential battery proves each bulk class exact, but a precondition
that silently stops a class from firing changes no result byte: it only
sends walks back through the per-event ``MemoryHierarchy.access_instr``.
This test counts those calls per demand instruction fetch, the ratio
perfbench reports as ``sim.scalar_fetch_share``: the calls over the sum
of ``fetch_sources`` of every simulated invocation, warm-up included.
Both counts are deterministic.
"""

import pytest

from repro.experiments.common import RunConfig, run_config
from repro.sim.core import Simulator
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.params import skylake
from repro.workloads.suite import get_profile

#: Upper bound on per-event fetches per demand fetch, by config.  At fast
#: scale on seed 1 the shares are about 0.017 (baseline: partial
#: residency), 0.165 (jukebox: walks while replay fills drain) and 0.009
#: (perfect: first passes of loop bodies).  Turning off one class alone
#: reads 0.10 (perfect: first touches), 0.26 (jukebox: misses reported to
#: the recorder) and 0.30 (jukebox: prefetch-flagged L2 hits).
BOUNDS = {"baseline": 0.03, "jukebox": 0.20, "perfect": 0.03}

PROFILES = ("Fib-P", "Fib-N", "ProdL-G")


@pytest.fixture(scope="module")
def scalar_shares():
    """Per config: ``(access_instr calls, demand fetches)``."""
    counts = {config: [0, 0] for config in BOUNDS}
    current = [None]
    access_instr = MemoryHierarchy.access_instr
    run = Simulator.run

    def counting_access_instr(self, addr, cycle):
        counts[current[0]][0] += 1
        return access_instr(self, addr, cycle)

    def counting_run(self, trace):
        result = run(self, trace)
        counts[current[0]][1] += sum(result.fetch_sources.values())
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MemoryHierarchy, "access_instr", counting_access_instr)
        mp.setattr(Simulator, "run", counting_run)
        # Profile-major, so each profile's traces are generated once.
        for abbrev in PROFILES:
            for config in BOUNDS:
                current[0] = config
                run_config(get_profile(abbrev), skylake(), RunConfig.fast(),
                           config)
    return counts


@pytest.mark.parametrize("config", tuple(BOUNDS))
def test_scalar_fetch_share_is_bounded(scalar_shares, config):
    calls, fetches = scalar_shares[config]
    assert fetches > 0
    assert calls / fetches <= BOUNDS[config], (
        f"{config}: {calls} of {fetches} demand fetches took the per-event "
        f"path; a bulk walk class stopped firing")
