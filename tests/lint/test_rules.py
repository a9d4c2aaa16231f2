"""Rule-by-rule tests of the REPRO00x static analyses over fixtures.

Each rule has at least one positive fixture (must fire) and one negative
fixture (must stay silent); suppression comments are covered separately.
"""

from pathlib import Path

import pytest

from repro.lint.engine import (Violation, iter_python_files, lint_file,
                               scope_key)
from repro.lint.rules import ALL_RULES, get_rule

FIXTURES = Path(__file__).parent / "fixtures"


def _lint_tree(path):
    """Every per-file rule over every Python file under ``path``."""
    return [violation for file, root in iter_python_files([path])
            for violation in lint_file(file, root=root)]


@pytest.fixture(scope="module")
def fixture_violations():
    """Lint the whole fixture tree once; tests slice it by file."""
    return _lint_tree(FIXTURES)


def _for_file(violations, name):
    return [v for v in violations if Path(v.path).name == name]


class TestRegistry:
    def test_six_rules_with_unique_ids(self):
        ids = [rule.id for rule in ALL_RULES]
        assert len(ids) == len(set(ids))
        assert len(ids) >= 6
        assert ids == sorted(ids)

    def test_every_rule_documented(self):
        for rule in ALL_RULES:
            assert rule.description
            assert rule.severity in ("error", "warning")

    def test_get_rule(self):
        assert get_rule("REPRO001").id == "REPRO001"
        with pytest.raises(KeyError):
            get_rule("REPRO999")


class TestScopeKey:
    def test_strips_repro_package_prefix(self):
        key = scope_key(Path("/x/repo/src/repro/sim/cache.py"))
        assert key == "sim/cache.py"

    def test_fixture_tree_relative_to_root(self):
        key = scope_key(FIXTURES / "sim" / "bad_float_eq.py", root=FIXTURES)
        assert key == "sim/bad_float_eq.py"

    def test_scoped_rule_applies(self):
        rule = get_rule("REPRO002")
        assert rule.applies_to("sim/core.py")
        assert rule.applies_to("analysis/metrics.py")
        assert not rule.applies_to("server/server.py")

    def test_excluded_path_does_not_apply(self):
        rule = get_rule("REPRO003")
        assert rule.applies_to("sim/cache.py")
        assert not rule.applies_to("sim/params.py")

    def test_wallclock_covers_engine(self):
        # The sweep engine must never read host time (its timing comes
        # from an injected clock), so REPRO006 polices it too.
        rule = get_rule("REPRO006")
        assert rule.applies_to("engine/executors.py")
        assert rule.applies_to("engine/sweep.py")

    def test_wallclock_covers_simulate_consumers(self):
        # Since the simulate() migration, stressors and experiment
        # builders sit directly on the simulation path; the CLI runner is
        # in scope too and carries explicit disables at its two
        # wall-clock *reporting* sites.
        rule = get_rule("REPRO006")
        assert rule.applies_to("server/stressor.py")
        assert rule.applies_to("experiments/common.py")
        assert rule.applies_to("experiments/runner.py")

    def test_wallclock_covers_obs(self):
        # Trace timestamps come only from injected clocks, so the
        # observability layer is under the same rule as the simulator.
        rule = get_rule("REPRO006")
        assert rule.applies_to("obs/tracer.py")
        assert rule.applies_to("obs/clock.py")

    def test_wallclock_covers_fleet(self):
        # Fleet shard results are content-addressed cache entries; a
        # host-clock read anywhere in the region simulator poisons them.
        rule = get_rule("REPRO006")
        assert rule.applies_to("fleet/region.py")
        assert rule.applies_to("fleet/plan.py")

    def test_wallclock_covers_coldstart(self):
        # Restore/init charges land inside memoized spectrum cells, so
        # the cold-start package must stay pure arithmetic.
        rule = get_rule("REPRO006")
        assert rule.applies_to("coldstart/pages.py")
        assert rule.applies_to("coldstart/model.py")


class TestREPRO001:
    def test_positive(self, fixture_violations):
        found = _for_file(fixture_violations, "bad_random.py")
        assert {v.rule_id for v in found} == {"REPRO001"}
        assert len(found) == 5  # random.random/randint, np.rand, 2 unseeded

    def test_negative(self, fixture_violations):
        assert not _for_file(fixture_violations, "good_random.py")

    def test_unseeded_placement_policy_flagged(self, fixture_violations):
        # A fleet placement policy drawing from ambient RNG state (or the
        # host clock) would make two shards plan the same region
        # differently; both analyses must fire on it.
        found = _for_file(fixture_violations, "bad_unseeded_policy.py")
        assert {v.rule_id for v in found} == {"REPRO001", "REPRO006"}
        assert sum(v.rule_id == "REPRO001" for v in found) == 3
        assert sum(v.rule_id == "REPRO006" for v in found) == 1

    def test_seeded_placement_policy_clean(self, fixture_violations):
        assert not _for_file(fixture_violations, "good_seeded_policy.py")


class TestREPRO002:
    def test_positive(self, fixture_violations):
        found = _for_file(fixture_violations, "bad_float_eq.py")
        assert {v.rule_id for v in found} == {"REPRO002"}
        assert len(found) == 2

    def test_negative(self, fixture_violations):
        assert not _for_file(fixture_violations, "good_float_eq.py")

    def test_out_of_scope_directory_is_silent(self, tmp_path):
        wild = tmp_path / "server" / "free_floats.py"
        wild.parent.mkdir()
        wild.write_text("def f(x):\n    return x == 1.0\n")
        assert _lint_tree(tmp_path) == []


class TestREPRO003:
    def test_positive(self, fixture_violations):
        found = _for_file(fixture_violations, "bad_magic.py")
        assert {v.rule_id for v in found} == {"REPRO003"}
        assert len(found) == 2
        assert all(v.severity == "warning" for v in found)

    def test_negative(self, fixture_violations):
        assert not _for_file(fixture_violations, "good_magic.py")


class TestREPRO004:
    def test_positive(self, fixture_violations):
        found = _for_file(fixture_violations, "bad_mutable_default.py")
        assert {v.rule_id for v in found} == {"REPRO004"}
        assert len(found) == 3  # two defaults + one class attribute

    def test_negative(self, fixture_violations):
        assert not _for_file(fixture_violations, "good_mutable_default.py")


class TestREPRO005:
    def test_positive(self, fixture_violations):
        found = _for_file(fixture_violations, "bad_except.py")
        assert {v.rule_id for v in found} == {"REPRO005"}
        assert len(found) == 2
        messages = " ".join(v.message for v in found)
        assert "bare except" in messages
        assert "discards" in messages

    def test_negative(self, fixture_violations):
        assert not _for_file(fixture_violations, "good_except.py")


class TestREPRO006:
    def test_positive(self, fixture_violations):
        found = _for_file(fixture_violations, "bad_wallclock.py")
        assert {v.rule_id for v in found} == {"REPRO006"}
        assert len(found) == 2

    def test_negative(self, fixture_violations):
        assert not _for_file(fixture_violations, "good_wallclock.py")


class TestREPRO007:
    def test_positive(self, fixture_violations):
        found = _for_file(fixture_violations, "bad_broad_except.py")
        assert {v.rule_id for v in found} == {"REPRO007"}
        assert len(found) == 3  # except Exception, tuple BaseException, bare
        messages = " ".join(v.message for v in found)
        assert "Exception" in messages
        assert "bare except" in messages

    def test_sanctioned_capture_point_is_exempt(self, fixture_violations):
        assert not _for_file(fixture_violations, "resilience.py")

    def test_scoped_to_engine_and_obs_only(self):
        rule = get_rule("REPRO007")
        assert rule.applies_to("engine/executors.py")
        assert rule.applies_to("engine/sweep.py")
        assert rule.applies_to("obs/tracer.py")
        assert not rule.applies_to("engine/resilience.py")
        assert not rule.applies_to("experiments/runner.py")
        assert not rule.applies_to("core/keepalive.py")

    def test_broad_except_in_obs_fires(self, fixture_violations):
        found = _for_file(fixture_violations, "bad_obs_except.py")
        assert {v.rule_id for v in found} == {"REPRO007"}
        assert len(found) == 1

    def test_wallclock_in_obs_fires(self, fixture_violations):
        found = _for_file(fixture_violations, "bad_obs_wallclock.py")
        assert {v.rule_id for v in found} == {"REPRO006"}
        assert len(found) == 1


class TestREPRO011:
    def test_argless_blocking_waits_fire(self, fixture_violations):
        found = _for_file(fixture_violations, "bad_blocking_wait.py")
        assert {v.rule_id for v in found} == {"REPRO011"}
        assert len(found) == 3  # .get(), .wait(), .acquire()
        messages = " ".join(v.message for v in found)
        assert "deadline guard" in messages

    def test_bounded_waits_and_dict_get_are_silent(self, fixture_violations):
        assert not _for_file(fixture_violations, "good_blocking_wait.py")

    def test_scoped_to_engine_only(self):
        rule = get_rule("REPRO011")
        assert rule.applies_to("engine/executors.py")
        assert rule.applies_to("engine/cache.py")
        assert not rule.applies_to("obs/tracer.py")
        assert not rule.applies_to("experiments/runner.py")


class TestREPRO008:
    def test_module_level_singletons_fire(self, fixture_violations):
        found = _for_file(fixture_violations, "bad_global_tracer.py")
        assert {v.rule_id for v in found} == {"REPRO008"}
        assert len(found) == 2  # Tracer() and the annotated JsonlSink()
        messages = " ".join(v.message for v in found)
        assert "singleton" in messages

    def test_injected_construction_is_silent(self, fixture_violations):
        assert not _for_file(fixture_violations, "good_injected_tracer.py")

    def test_fires_everywhere_not_just_obs(self):
        rule = get_rule("REPRO008")
        assert rule.applies_to("engine/sweep.py")
        assert rule.applies_to("obs/tracer.py")
        assert rule.applies_to("experiments/runner.py")

    def test_module_level_coldstart_model_fires(self, fixture_violations):
        # A spectrum model's recorded page trace is per-simulation state;
        # module-level construction is the same ambient-singleton defect
        # as a global tracer.
        found = _for_file(fixture_violations, "bad_global_model.py")
        assert {v.rule_id for v in found} == {"REPRO008"}
        assert len(found) == 3  # SpectrumColdStart, PageReplayState,
        #                         SnapshotState

    def test_injected_coldstart_model_is_silent(self, fixture_violations):
        assert not _for_file(fixture_violations, "good_injected_model.py")

    def test_wallclock_in_coldstart_fires(self, fixture_violations):
        found = _for_file(fixture_violations, "bad_coldstart_wallclock.py")
        assert {v.rule_id for v in found} == {"REPRO006"}
        assert len(found) == 2  # two perf_counter reads


class TestSuppression:
    def test_inline_disable(self, fixture_violations):
        assert not _for_file(fixture_violations, "suppressed.py")

    def test_file_wide_disable(self, fixture_violations):
        assert not _for_file(fixture_violations, "suppressed_file.py")

    def test_disable_only_silences_named_rule(self, tmp_path):
        target = tmp_path / "sim" / "mixed.py"
        target.parent.mkdir()
        target.write_text(
            "import time\n"
            "def f(x):\n"
            "    return x == 1.0, time.time()  # repro-lint: disable=REPRO002\n"
        )
        found = _lint_tree(tmp_path)
        assert {v.rule_id for v in found} == {"REPRO006"}


class TestEngineEdges:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        found = _lint_tree(tmp_path)
        assert len(found) == 1
        assert found[0].rule_id == "REPRO000"
        assert found[0].severity == "error"

    def test_violations_are_formatted_with_location(self, fixture_violations):
        violation = _for_file(fixture_violations, "bad_float_eq.py")[0]
        assert isinstance(violation, Violation)
        text = violation.format()
        assert "bad_float_eq.py" in text
        assert "REPRO002" in text
        assert ":" in text
