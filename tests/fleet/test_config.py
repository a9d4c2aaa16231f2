"""FleetConfig validation and shard-partition properties."""

import dataclasses
import json
import random

import pytest

from repro.errors import ConfigurationError
from repro.fleet.config import (
    FleetConfig,
    shard_bounds,
    shard_node_ids,
)
from repro.fleet.region import simulate_region
from repro.workloads.arrival import ARRIVAL_KINDS


class TestFleetConfigValidation:
    def test_defaults_are_valid(self):
        FleetConfig()

    def test_fields_are_the_settings_callers_set(self):
        assert [f.name for f in dataclasses.fields(FleetConfig)] == [
            "nodes", "functions", "instances", "duration_ms",
            "mean_iat_ms", "arrival", "jukebox", "seed"]

    @pytest.mark.parametrize("field", ["nodes", "functions", "instances"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_nonpositive_counts(self, field, value):
        with pytest.raises(ConfigurationError):
            FleetConfig(**{field: value})

    @pytest.mark.parametrize("field", ["duration_ms", "mean_iat_ms"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"),
                                       float("inf"), float("-inf")])
    def test_rejects_nonfinite_or_nonpositive_times(self, field, value):
        with pytest.raises(ConfigurationError):
            FleetConfig(**{field: value})

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(arrival="weibull")

    @pytest.mark.parametrize("arrival", ARRIVAL_KINDS)
    def test_every_arrival_kind_accepted(self, arrival):
        cfg = FleetConfig(arrival=arrival)
        assert cfg.arrival == arrival
        assert f"-{arrival}-" in cfg.abbrev

    def test_replace_revalidates(self):
        cfg = FleetConfig()
        with pytest.raises(ConfigurationError):
            cfg.replace(nodes=0)

    def test_abbrev_distinguishes_jukebox(self):
        base = FleetConfig()
        assert base.abbrev != base.replace(jukebox=True).abbrev
        assert base.abbrev.startswith("fleet-")
        assert "-round-robin-" in base.abbrev

    def test_result_echoes_every_setting_with_its_json_type(self):
        """The echo keeps the 11 fixed settings next to the 8 fields, with
        the JSON types the committed fleet-region digests hash."""
        echo = simulate_region(FleetConfig(
            nodes=1, instances=4, functions=2, duration_ms=200.0))["config"]
        expected = {
            "nodes": 1, "functions": 2, "instances": 4,
            "duration_ms": 200.0, "mean_iat_ms": 2_000.0,
            "arrival": "poisson", "jukebox": False, "seed": 1,
            "cores_per_node": 10, "memory_gb_per_node": 64,
            "service_time_ms": 1.0, "cold_start_penalty_ms": 120.0,
            "coldstart": "constant", "page_replay": True,
            "init_trim": False, "zipf_alpha": 1.1,
            "balancer": "round-robin", "keepalive": "fixed",
            "ttl_minutes": 10.0,
        }
        # JSON text tells 10 from 10.0, which dict equality does not.
        assert json.dumps(echo, sort_keys=True) \
            == json.dumps(expected, sort_keys=True)


class TestShardBounds:
    def test_partitions_every_node_exactly_once(self):
        rng = random.Random(42)
        for _ in range(200):
            nodes = rng.randrange(1, 64)
            shards = rng.randrange(1, nodes + 1)
            covered = []
            for shard in range(shards):
                covered.extend(shard_node_ids(nodes, shard, shards))
            assert covered == list(range(nodes)), (nodes, shards)

    def test_near_equal_split(self):
        rng = random.Random(7)
        for _ in range(100):
            nodes = rng.randrange(1, 64)
            shards = rng.randrange(1, nodes + 1)
            sizes = [len(shard_node_ids(nodes, shard, shards))
                     for shard in range(shards)]
            assert max(sizes) - min(sizes) <= 1

    def test_rejects_invalid_sharding(self):
        with pytest.raises(ConfigurationError):
            shard_bounds(4, 0, 0)
        with pytest.raises(ConfigurationError):
            shard_bounds(4, 4, 4)
        with pytest.raises(ConfigurationError):
            shard_bounds(4, -1, 4)
        with pytest.raises(ConfigurationError):
            shard_bounds(4, 0, 5)
