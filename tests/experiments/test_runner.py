"""Tests for the lukewarm-repro CLI."""

import argparse
import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from repro.experiments.runner import (
    EXPERIMENTS,
    Experiment,
    _nonnegative_int,
    _positive_float,
    _positive_int,
    build_parser,
    default_cache_dir,
    main,
    run_experiment,
)
from repro.experiments.common import RunConfig


@pytest.fixture
def boom_experiment(monkeypatch):
    """Register a registry entry whose module's run() always raises."""
    def explode(cfg, **kwargs):
        raise RuntimeError("injected experiment failure")

    module = types.ModuleType("boom_experiment")
    module.run = explode
    module.render = lambda result: ""
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exp = Experiment("boom", "always fails", module.__name__)
    monkeypatch.setitem(EXPERIMENTS, "boom", exp)
    return exp


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {f"fig{n:02d}" for n in (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13)}
        expected |= {"table1", "table2", "table3", "throughput", "fleet",
                     "spectrum"}
        assert set(EXPERIMENTS) == expected

    def test_every_experiment_has_run_and_render(self):
        for exp in EXPERIMENTS.values():
            module = exp.load()
            assert callable(module.run)
            assert callable(module.render)
            assert exp.description

    def test_experiments_advertise_their_sweeps(self):
        assert EXPERIMENTS["fig10"].configs == ("baseline", "jukebox",
                                                "perfect")
        assert EXPERIMENTS["fig05"].configs == ("reference", "baseline")
        assert EXPERIMENTS["table2"].configs == ()


class TestParser:
    def test_parses_names_and_flags(self):
        args = build_parser().parse_args(["fig10", "--fast", "--seed", "3"])
        assert args.experiments == ["fig10"]
        assert args.fast
        assert args.seed == 3

    def test_backend_flag(self):
        args = build_parser().parse_args(["fig10", "--backend", "scalar"])
        assert args.backend == "scalar"
        assert build_parser().parse_args(["fig10"]).backend == "columnar"

    def test_backend_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig10", "--backend", "gpu"])
        assert "scalar" in capsys.readouterr().err

    def test_functions_filter(self):
        args = build_parser().parse_args(
            ["fig10", "--functions", "Auth-G", "Pay-N"])
        assert args.functions == ["Auth-G", "Pay-N"]

    def test_engine_flags(self):
        args = build_parser().parse_args(
            ["fig10", "--jobs", "4", "--cache-dir", "/tmp/x",
             "--no-cache", "--json"])
        assert args.jobs == 4
        assert args.cache_dir == Path("/tmp/x")
        assert args.no_cache
        assert args.as_json

    def test_engine_flag_defaults(self):
        args = build_parser().parse_args(["fig10"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache
        assert not args.as_json
        assert args.retries == 0
        assert not args.keep_going
        assert args.inject_faults is None

    def test_resilience_flags(self):
        args = build_parser().parse_args(
            ["fig10", "--retries", "2", "--keep-going",
             "--inject-fault", "fail:#3", "--inject-fault", "kill:#2"])
        assert args.retries == 2
        assert args.keep_going
        assert args.inject_faults == ["fail:#3", "kill:#2"]

    def test_no_worker_recycling_flag(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fig10", "--maxtasksperchild", "8"])
        assert exc.value.code == 2

    def test_observability_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["fig10", "--trace", str(tmp_path / "t.jsonl")])
        assert args.trace == tmp_path / "t.jsonl"

    def test_observability_flag_defaults(self):
        args = build_parser().parse_args(["fig10"])
        assert args.trace is None

    def test_jobs_rejected_at_parse_time(self, capsys):
        """--jobs 0 is a usage error argparse itself reports (exit 2)."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fig10", "--jobs", "0"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_retries_reject_negative(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fig10", "--retries", "-1"])
        assert exc.value.code == 2
        assert "--retries" in capsys.readouterr().err


class TestArgumentTypes:
    """The argparse types behind --seed, --jobs, --retries, --job-timeout
    and --sweep-deadline, called directly or through ``main``."""

    def test_positive_int_accepts_one(self):
        assert _positive_int("1") == 1

    def test_positive_int_names_the_bound(self):
        with pytest.raises(argparse.ArgumentTypeError,
                           match="must be >= 1, got 0"):
            _positive_int("0")

    def test_positive_int_rejects_a_fraction(self):
        with pytest.raises(argparse.ArgumentTypeError,
                           match="expected an integer, got '1.5'"):
            _positive_int("1.5")

    def test_nonnegative_int_accepts_zero(self):
        assert _nonnegative_int("0") == 0

    def test_nonnegative_int_names_the_bound(self):
        with pytest.raises(argparse.ArgumentTypeError,
                           match="must be >= 0, got -2"):
            _nonnegative_int("-2")

    def test_nonnegative_int_rejects_words(self):
        with pytest.raises(argparse.ArgumentTypeError,
                           match="expected an integer, got 'two'"):
            _nonnegative_int("two")

    def test_positive_float_accepts_a_fraction(self):
        assert _positive_float("0.25") == 0.25

    def test_positive_float_rejects_zero_seconds(self):
        with pytest.raises(argparse.ArgumentTypeError,
                           match="must be > 0 seconds, got 0.0"):
            _positive_float("0")

    def test_positive_float_rejects_words(self):
        with pytest.raises(argparse.ArgumentTypeError,
                           match="expected a number of seconds, got 'soon'"):
            _positive_float("soon")

    def test_negative_seed_is_rejected_at_parse_time(self, capsys):
        """numpy rejects a negative seed; failing in every cell would
        read as "rerun to resume warm", which cannot help."""
        with pytest.raises(SystemExit) as exc:
            main(["fig10", "--fast", "--functions", "Fib-G", "--seed", "-1",
                  "--no-cache"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: must be >= 0, got -1" in captured.err

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_positive_float_rejects_non_finite_seconds(self, text):
        """NaN passes ``<= 0``, and a guard armed with NaN or inf seconds
        never expires."""
        with pytest.raises(argparse.ArgumentTypeError,
                           match=f"must be a finite number of seconds, "
                                 f"got {float(text)}"):
            _positive_float(text)


class TestCacheDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("LUKEWARM_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("LUKEWARM_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "lukewarm-repro"


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "table3" in out

    def test_list_shows_swept_configs(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "[baseline, jukebox, perfect]" in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,unknown", [
        (["fig10", "--fast", "--functions", "Nope"], "Nope"),
        (["all", "--keep-going", "--functions", "Auth-G", "Nope", "Nix"],
         "Nope, Nix"),
    ])
    def test_unknown_function_is_a_usage_error(self, capsys, argv, unknown):
        """Nothing runs, so it is not an experiment failure (exit 3)."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown functions: {unknown}\n" in captured.err
        assert "known: " in captured.err and "ProdL-G" in captured.err
        assert "experiment(s) failed" not in captured.err

    def test_repeated_function_is_a_usage_error(self, capsys, tmp_path):
        """A function listed twice would be swept and weighed in every
        aggregate twice; nothing runs and nothing is cached."""
        cache = tmp_path / "cache"
        assert main(["fig10", "--fast", "--functions", "Fib-P", "Fib-P",
                     "ProdL-G", "--cache-dir", str(cache)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "listed more than once: Fib-P\n" in captured.err
        assert "experiment(s) failed" not in captured.err
        assert not cache.exists()

    def test_functions_without_names_is_a_usage_error(self, capsys):
        """An empty --functions (say, from an empty shell variable) must
        not read as "no filter" and run every function."""
        with pytest.raises(SystemExit) as exc:
            main(["fig10", "--fast", "--functions"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--functions" in captured.err

    def test_rejects_nonpositive_jobs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table2", "--jobs", "0"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_rejects_malformed_fault_spec(self, capsys):
        assert main(["table2", "--inject-fault", "explode:#1"]) == 2
        assert "--inject-fault" in capsys.readouterr().err

    def test_rejects_no_cache_with_cache_dir(self, capsys, tmp_path):
        """An explicit --cache-dir contradicts --no-cache; silently
        dropping either would mislead cache benchmarking."""
        argv = ["table2", "--no-cache", "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--no-cache" in err and "--cache-dir" in err

    def test_unusable_cache_dir_is_a_usage_error(self, capsys, tmp_path):
        """A --cache-dir that names a regular file cannot hold a cache:
        exit 2 with the reason, before any experiment runs."""
        blocker = tmp_path / "FILE"
        blocker.write_text("")
        assert main(["table1", "--cache-dir", str(blocker)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"--cache-dir: [Errno 17] File exists: "
                                f"'{blocker}'\n")

    def test_unusable_trace_path_is_a_usage_error(self, capsys, tmp_path):
        """A --trace file under a regular file cannot be created: exit 2
        with the reason, before any experiment runs."""
        blocker = tmp_path / "FILE"
        blocker.write_text("")
        argv = ["table1", "--no-cache", "--trace", str(blocker / "x.jsonl")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"--trace: [Errno 17] File exists: "
                                f"'{blocker}'\n")

    def test_unusable_default_cache_is_a_usage_error(
            self, capsys, tmp_path, monkeypatch):
        """The default cache root (``LUKEWARM_CACHE_DIR`` here) is what
        --cache-dir overrides, so the message names that flag."""
        blocker = tmp_path / "FILE"
        blocker.write_text("")
        monkeypatch.setenv("LUKEWARM_CACHE_DIR", str(blocker))
        assert main(["table1"]) == 2
        assert capsys.readouterr().err.startswith("--cache-dir: ")

    def test_trace_path_is_checked_before_the_cache_opens(self, capsys,
                                                           tmp_path):
        blocker = tmp_path / "FILE"
        blocker.write_text("")
        cache = tmp_path / "cache"
        assert main(["table1", "--cache-dir", str(cache),
                     "--trace", str(blocker / "x.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("--trace: ")
        assert not cache.exists()

    def test_unusable_cache_dir_leaves_an_existing_trace(self, capsys,
                                                         tmp_path):
        """The trace file is opened for writing, which empties it, only
        once the cache root is open."""
        blocker = tmp_path / "FILE"
        blocker.write_text("")
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(b"0123456789")
        assert main(["table1", "--cache-dir", str(blocker),
                     "--trace", str(trace)]) == 2
        assert capsys.readouterr().err.startswith("--cache-dir: ")
        assert trace.read_bytes() == b"0123456789"

    def test_unwritable_trace_file_is_a_usage_error(self, capsys, tmp_path):
        """A --trace path that cannot be opened for writing (here a
        directory) is still a usage error naming its flag."""
        trace = tmp_path / "t.jsonl"
        trace.mkdir()
        assert main(["table1", "--cache-dir", str(tmp_path / "cache"),
                     "--trace", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"--trace: [Errno 21] Is a directory: "
                                f"'{trace}'\n")

    def test_runs_cheap_experiment(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "engine: no simulation cells" in out

    def test_run_without_cache_flag_writes_only_the_default_cache(
            self, tmp_path, monkeypatch, isolated_cache_dir):
        """A run with no cache flag opens the default cache -- under the
        test suite, the per-test directory of ``LUKEWARM_CACHE_DIR`` --
        and leaves ``HOME`` and ``XDG_CACHE_HOME`` untouched."""
        for name in ("HOME", "XDG_CACHE_HOME"):
            (tmp_path / name).mkdir()
            monkeypatch.setenv(name, str(tmp_path / name))
        assert main(["table2"]) == 0
        assert (isolated_cache_dir / ".lock").is_file()
        assert list((tmp_path / "HOME").iterdir()) == []
        assert list((tmp_path / "XDG_CACHE_HOME").iterdir()) == []

    def test_json_output(self, capsys):
        assert main(["table2", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["experiment"] == "table2"
        assert "Table 2" in records[0]["report"]
        assert records[0]["engine"]["cells"] == 0

    def test_times_experiments_on_the_injected_clock(self, monkeypatch,
                                                     capsys):
        """Per-experiment seconds come from the clock the runner hands
        the engine; the runner never reads ``time.time``."""
        def wall_clock():
            raise AssertionError("the runner read time.time()")

        monkeypatch.setattr(time, "time", wall_clock)
        assert main(["table2", "--json", "--no-cache"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["seconds"] >= 0

    def test_warm_cache_run_skips_simulation(self, capsys, tmp_path):
        argv = ["fig06", "--fast", "--functions", "Auth-G",
                "--cache-dir", str(tmp_path / "cache"), "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)[0]["engine"]
        assert cold["simulated"] > 0
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)[0]["engine"]
        assert warm["simulated"] == 0
        assert warm["cache_hits"] == cold["simulated"]

    def test_cache_root_holds_only_entries_and_the_lock(
            self, capsys, tmp_path, monkeypatch):
        """A cached run writes only two-hex fanout directories of entries
        and the lock under its root; a --no-cache run writes nothing,
        not even to the default root."""
        monkeypatch.setenv("LUKEWARM_CACHE_DIR", str(tmp_path / "default"))
        argv = ["fig06", "--fast", "--functions", "Auth-G"]
        assert main(argv + ["--no-cache"]) == 0
        assert list(tmp_path.iterdir()) == []
        root = tmp_path / "cache"
        assert main(argv + ["--cache-dir", str(root)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["cache"]
        names = sorted(p.name for p in root.iterdir())
        assert ".lock" in names
        fanout = [name for name in names if name != ".lock"]
        assert fanout
        for name in fanout:
            assert len(name) == 2 and int(name, 16) >= 0
            assert (root / name).is_dir()
            assert all(entry.suffix == ".pkl"
                       for entry in (root / name).iterdir())

    def test_trace_output(self, capsys, tmp_path):
        """--trace writes a schema-valid file whose aggregates agree with
        the engine stats the JSON report carries."""
        from repro.obs.summarize import read_trace, summarize

        trace = tmp_path / "trace.jsonl"
        argv = ["fig06", "--fast", "--functions", "Auth-G",
                "--cache-dir", str(tmp_path / "cache"), "--json",
                "--trace", str(trace)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        engine_stats = json.loads(captured.out)[0]["engine"]
        assert f"trace written to {trace}" in captured.err
        # read_trace schema-validates every line; summarize cross-checks
        # the stream against its own sweep.end records.
        summary = summarize(read_trace(trace))
        assert summary.count("cache.hit") == engine_stats["cache_hits"]
        assert summary.count("cache.miss") == engine_stats["simulated"]
        assert summary.count("retry.backoff") == engine_stats["retries"]
        assert summary.jobs == engine_stats["cells"]

    @pytest.mark.parametrize("argv", [
        ["fleet", "--fast", "--no-cache"],
        ["spectrum", "--fast", "--functions", "ProdL-G", "--no-cache"],
    ], ids=["fleet", "spectrum"])
    def test_traced_result_sweeps_record_only_engine_kinds(
            self, capsys, tmp_path, argv):
        """Fleet regions and spectrum points reach the trace only through
        the engine's sweep/executor records, one dispatch and harvest per
        cell, and the trace summarizes cleanly."""
        from repro.obs.__main__ import main as obs_main
        from repro.obs.summarize import read_trace, summarize

        trace = tmp_path / "trace.jsonl"
        assert main(argv + ["--trace", str(trace)]) == 0
        summary = summarize(read_trace(trace))
        assert set(summary.counts) == {"sweep.begin", "sweep.end",
                                       "executor.dispatch",
                                       "executor.harvest"}
        assert summary.count("sweep.end") == summary.sweeps
        assert (summary.count("executor.dispatch")
                == summary.count("executor.harvest") == summary.jobs)
        capsys.readouterr()
        assert obs_main(["summarize", str(trace), "--slowest", "0"]) == 0
        assert "slowest cells:" not in capsys.readouterr().out

    def test_footer_reports_events_without_trace_flag(self, capsys,
                                                      tmp_path):
        """The always-on in-memory collector feeds the footer even when
        no --trace file was requested."""
        argv = ["fig06", "--fast", "--functions", "Auth-G",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "obs: " in out and "cache.miss=" in out

    def test_json_stdout_stays_pure_json_with_tracing(self, capsys,
                                                      tmp_path):
        argv = ["fig06", "--fast", "--functions", "Auth-G",
                "--cache-dir", str(tmp_path / "cache"), "--json",
                "--trace", str(tmp_path / "trace.jsonl")]
        assert main(argv) == 0
        json.loads(capsys.readouterr().out)  # footer must not pollute it

    def test_failing_experiment_exits_3(self, capsys, boom_experiment):
        assert main(["boom"]) == 3
        err = capsys.readouterr().err
        assert "boom FAILED" in err
        assert "injected experiment failure" in err
        assert "1 experiment(s) failed: boom" in err

    def test_trace_of_a_failed_run_ends_with_the_lock_release(
            self, capsys, tmp_path, boom_experiment):
        """The trace file outlives the engine context: the cache lock's
        release, emitted as the context closes, is its last record, and
        the file summarizes."""
        from repro.obs.summarize import read_trace, summarize

        trace = tmp_path / "trace.jsonl"
        assert main(["boom", "--cache-dir", str(tmp_path / "cache"),
                     "--trace", str(trace)]) == 3
        events = read_trace(trace)
        assert [(e.kind, e.fields_dict()["action"]) for e in events] == [
            ("cache.lock", "acquire"), ("cache.lock", "release")]
        assert summarize(events).count("cache.lock") == 2

    def test_failure_stops_the_run_by_default(self, capsys, boom_experiment):
        assert main(["boom", "table2"]) == 3
        assert "Table 2" not in capsys.readouterr().out

    def test_keep_going_finishes_remaining(self, capsys, boom_experiment):
        assert main(["boom", "table2", "--keep-going"]) == 3
        captured = capsys.readouterr()
        assert "Table 2" in captured.out
        assert "1 experiment(s) failed: boom" in captured.err

    def test_json_records_the_failure(self, capsys, boom_experiment):
        assert main(["boom", "--json"]) == 3
        records = json.loads(capsys.readouterr().out)
        assert records[0]["report"] is None
        assert "RuntimeError" in records[0]["error"]
        assert records[0]["engine"]["failures"] == 0

    def test_json_success_has_null_error(self, capsys):
        assert main(["table2", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["error"] is None
        assert records[0]["engine"]["retries"] == 0

    def test_run_experiment_helper(self):
        cfg = RunConfig(invocations=3, warmup=1, instruction_scale=0.15)
        out = run_experiment("fig06", cfg, functions=["Auth-G"])
        assert "Figure 6a" in out


#: Module families the runner must import only when one of them runs.
_LAZY_PREFIXES = ("repro.experiments.fig", "repro.experiments.table",
                  "repro.experiments.ext_", "repro.fleet")

_LOADED_SCRIPT = """
import sys
from repro.experiments import runner
{action}
print("\\n".join(sorted(
    name for name in sys.modules if name.startswith({prefixes!r}))))
"""


#: The analyzer's modules, which no experiment run may load.
_ANALYZER_MODULES = ("repro.lint.graph", "repro.lint.rules",
                     "repro.lint.engine", "repro.lint.cli")


#: What a re-run served entirely from the cache must not import.
_SIMULATOR_MODULES = ("numpy", "repro.sim.core", "repro.sim.batch",
                      "repro.sim.hierarchy", "repro.sim.cache",
                      "repro.workloads.trace", "repro.workloads.function",
                      "repro.workloads.layout")

_CAPTURE_SCRIPT = """
import json, sys
from repro.engine import executors
from repro.experiments import runner
seen = []
def capture(self, tasks, on_outcome=None, guard=None):
    seen.append({{"executor": type(self).__name__, "cells": len(tasks),
                 "simulator_loaded": "repro.sim.core" in sys.modules}})
    raise RuntimeError("batch captured")
executors.SerialExecutor.run_tasks = capture
executors.ProcessExecutor.run_tasks = capture
assert runner.main({argv!r}) == 3
print(json.dumps(seen))
"""


def _batch_seen_by_executor(argv: list) -> dict:
    """What a fresh interpreter running ``argv`` hands its executor: the
    executor's class, the batch size and whether the simulator was
    loaded by then (the batch is captured, nothing runs)."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", _CAPTURE_SCRIPT.format(argv=argv)], env=env,
        capture_output=True, text=True, check=True).stdout
    (seen,) = json.loads(out.splitlines()[-1])
    return seen


def _loaded_after(action: str, prefixes=_LAZY_PREFIXES) -> list:
    """The modules named by ``prefixes`` loaded by a fresh interpreter
    that imports the runner and then runs ``action``."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = _LOADED_SCRIPT.format(action=action, prefixes=prefixes)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    return [line for line in out.splitlines() if line.startswith(prefixes)]


class TestLazyImports:
    """The runner imports an experiment's module only when it runs."""

    def test_importing_the_runner_loads_no_experiment(self):
        assert _loaded_after("") == []

    def test_running_one_experiment_loads_only_its_module(self):
        loaded = _loaded_after(
            'assert runner.main(["table1", "--no-cache"]) == 0')
        assert loaded == ["repro.experiments.table1_config"]

    def test_a_cached_simulation_run_loads_no_analyzer(self, tmp_path):
        """The simulator imports ``repro.lint.contracts``; the package
        root it goes through must not drag the analyzer in with it."""
        argv = ["fig10", "--fast", "--functions", "Fib-P",
                "--cache-dir", str(tmp_path)]
        loaded = _loaded_after(f"assert runner.main({argv!r}) == 0",
                               prefixes=_ANALYZER_MODULES)
        assert loaded == []

    def test_importing_the_runner_loads_no_analyzer(self):
        assert _loaded_after("", prefixes=_ANALYZER_MODULES) == []

    def test_keying_a_cell_loads_no_analyzer(self):
        """Cache keys digest the sources directly; no import graph is
        built, so keying needs nothing from the analyzer."""
        action = ("from repro.engine import Job\n"
                  "assert len(Job.make('Fib-P', None, {'n': 1},"
                  " 'baseline').key()) == 64")
        assert _loaded_after(action, prefixes=_ANALYZER_MODULES) == []

    def test_importing_the_runner_loads_no_numpy(self):
        assert _loaded_after("", prefixes=("numpy",)) == []

    @pytest.mark.parametrize("experiment", ["fig10", "fig13", "table3"])
    def test_a_cached_run_loads_neither_numpy_nor_the_simulator(
            self, tmp_path, experiment):
        """Cached cells unpickle into result types that do not import the
        simulator, so a re-run served from the cache never loads it."""
        argv = [experiment, "--fast", "--functions", "Fib-P",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        loaded = _loaded_after(f"assert runner.main({argv!r}) == 0",
                               prefixes=_SIMULATOR_MODULES)
        assert loaded == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_cold_sweep_loads_the_simulator_before_dispatch(self, jobs):
        """The sweep imports each provider before the executor receives
        the batch: no cell's time absorbs the simulator's import, and
        forked pool workers inherit it."""
        argv = ["fig10", "--fast", "--functions", "Fib-P", "--no-cache",
                "--jobs", jobs]
        assert _batch_seen_by_executor(argv) == {
            "executor": "SerialExecutor" if jobs == "1"
            else "ProcessExecutor",
            "cells": 3, "simulator_loaded": True}
