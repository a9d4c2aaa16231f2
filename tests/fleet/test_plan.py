"""Round-robin placement and the Zipf popularity model."""

from unittest import mock

import pytest

from repro.errors import ConfigurationError
from repro.fleet import plan as fleet_plan
from repro.fleet.config import FleetConfig
from repro.fleet.plan import plan_region
from repro.fleet.popularity import (
    JUKEBOX_UPLIFT,
    instances_per_function,
    service_scale,
    zipf_weights,
)
from repro.workloads.profiles import LANG_GO, LANG_NODEJS, LANG_PYTHON


class TestPopularity:
    def test_zipf_weights_normalized_and_decreasing(self):
        weights = zipf_weights(20, 1.1)
        assert sum(weights) == pytest.approx(1.0)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_allotment_sums_exactly(self):
        for functions, instances in ((20, 800), (7, 13), (40, 101), (3, 3)):
            counts = instances_per_function(functions, instances, 1.1)
            assert sum(counts) == instances
            assert all(c >= 0 for c in counts)

    def test_allotment_skews_to_popular_functions(self):
        counts = instances_per_function(20, 800, 1.1)
        assert counts[0] > counts[-1]

    def test_allotment_deterministic(self):
        assert instances_per_function(20, 800, 1.1) \
            == instances_per_function(20, 800, 1.1)

    def test_uniform_alpha_zero(self):
        counts = instances_per_function(10, 100, 0.0)
        assert counts == [10] * 10

    def test_invalid_args_rejected(self):
        with pytest.raises(ConfigurationError):
            zipf_weights(0, 1.1)
        with pytest.raises(ConfigurationError):
            instances_per_function(10, 0, 1.1)

    def test_service_scale_positive_and_jukebox_smaller(self):
        for f in range(40):
            base = service_scale(f, jukebox=False)
            jb = service_scale(f, jukebox=True)
            assert base > 0
            assert jb < base

    def test_uplift_ordering_matches_fig10(self):
        assert JUKEBOX_UPLIFT[LANG_GO] > JUKEBOX_UPLIFT[LANG_NODEJS] \
            > JUKEBOX_UPLIFT[LANG_PYTHON]


class TestPlanRegion:
    def test_every_instance_placed_exactly_once(self):
        cfg = FleetConfig(nodes=6, instances=200, functions=15)
        plan = plan_region(cfg)
        assert sorted(plan) == list(range(cfg.nodes))
        ids = [spec.global_id for specs in plan.values() for spec in specs]
        assert sorted(ids) == list(range(cfg.instances))

    def test_plan_is_pure_function_of_config(self):
        cfg = FleetConfig(nodes=4, instances=100)
        assert plan_region(cfg) == plan_region(cfg)

    def test_round_robin_rotates(self):
        """Instance ``global_id`` lands on node ``global_id % nodes``: every
        spec sits under that node's key."""
        cfg = FleetConfig(nodes=5, instances=120)
        plan = plan_region(cfg)
        for node, specs in plan.items():
            assert all(spec.global_id % cfg.nodes == node for spec in specs)

    def test_round_robin_plan_is_balanced(self):
        cfg = FleetConfig(nodes=8, instances=200)
        sizes = [len(s) for s in plan_region(cfg).values()]
        assert max(sizes) == min(sizes)  # 200 / 8 exactly

    def test_instance_ids_are_stable_and_unique(self):
        cfg = FleetConfig(nodes=4, instances=50)
        plan = plan_region(cfg)
        ids = [spec.instance_id for specs in plan.values() for spec in specs]
        assert len(set(ids)) == len(ids)
        assert all(i.startswith("f") and "/i" in i for i in ids)

    @pytest.mark.parametrize("nodes,instances", [
        (1, 1), (3, 2), (5, 120), (7, 100), (16, 800)])
    def test_plan_shape(self, nodes, instances):
        """Every node key is present, even when ``nodes > instances``
        leaves some empty; node sizes differ by at most one; and each node
        holds its ``global_id``s in ascending order."""
        cfg = FleetConfig(nodes=nodes, instances=instances, functions=10)
        plan = plan_region(cfg)
        assert sorted(plan) == list(range(nodes))
        sizes = [len(plan[n]) for n in range(nodes)]
        assert sum(sizes) == instances
        assert max(sizes) - min(sizes) <= 1
        for node, specs in plan.items():
            assert [spec.global_id for spec in specs] \
                == list(range(node, instances, nodes))

    def test_zipf_alpha_sets_the_allotment(self):
        """The plan allots instances with the fleet's Zipf constant: at
        alpha 0 every function gets the same share, at the fleet's 1.1
        the popular ones get more."""
        def per_function(plan):
            counts = {}
            for specs in plan.values():
                for spec in specs:
                    counts[spec.function_id] = \
                        counts.get(spec.function_id, 0) + 1
            return sorted(counts.values())

        cfg = FleetConfig(nodes=3, instances=60, functions=6)
        with mock.patch.object(fleet_plan, "ZIPF_ALPHA", 0.0):
            assert per_function(plan_region(cfg)) == [10] * 6
        skewed = per_function(plan_region(cfg))
        assert sum(skewed) == 60 and skewed[-1] > skewed[0]
