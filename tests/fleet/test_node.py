"""A fleet node takes its hardware and policy from the module constants
in :mod:`repro.fleet.config`."""

from unittest import mock

import pytest

from repro.fleet import node as fleet_node
from repro.fleet.config import FleetConfig
from repro.fleet.node import build_node, simulate_node
from repro.fleet.plan import plan_region


@pytest.mark.parametrize("constant,field,value", [
    ("CORES_PER_NODE", "cores", 3),
    ("MEMORY_GB_PER_NODE", "memory_gb", 2),
    ("SERVICE_TIME_MS", "service_time_ms", 4.5),
    ("COLD_START_PENALTY_MS", "cold_start_ms", 33.0),
    ("TTL_MINUTES", "ttl_minutes", 0.05),
])
def test_node_takes_each_setting_from_its_constant(constant, field, value):
    cfg = FleetConfig(nodes=2, instances=10, functions=4)
    specs = plan_region(cfg)[1]
    default = getattr(build_node(cfg, 1, specs).config, field)
    assert default == getattr(fleet_node, constant) != value
    with mock.patch.object(fleet_node, constant, value):
        sim = build_node(cfg, 1, specs)
    assert getattr(sim.config, field) == value
    assert sorted(sim._instances) == sorted(s.instance_id for s in specs)


def test_short_ttl_constant_evicts_on_the_node():
    """Patching the node's TTL constant changes only the keep-alive: the
    arrivals stay, and cold starts and evictions appear."""
    cfg = FleetConfig(nodes=1, instances=20, functions=5,
                      duration_ms=20_000.0, mean_iat_ms=5_000.0, seed=3)
    specs = plan_region(cfg)[0]
    long_ttl = simulate_node(cfg, 0, specs)
    with mock.patch.object(fleet_node, "TTL_MINUTES", 0.02):
        short_ttl = simulate_node(cfg, 0, specs)
    assert short_ttl["arrivals"] == long_ttl["arrivals"]
    assert long_ttl["evictions"] == 0
    assert short_ttl["evictions"] > 0
    assert short_ttl["cold_starts"] > long_ttl["cold_starts"]
