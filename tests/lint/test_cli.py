"""CLI tests, including the tier-1 gate: the shipped tree must lint clean."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


class TestRepoGate:
    def test_src_tree_lints_clean(self):
        """Tier-1 gate: ``python -m repro.lint src/`` exits 0 on the repo."""
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, (
            f"repro.lint found violations:\n{result.stdout}{result.stderr}"
        )
        assert "clean" in result.stdout


class TestPackageRoot:
    def test_importing_the_package_loads_no_lint_module(self):
        """``repro.lint`` imports nothing itself, and the ``repro`` root
        it goes through resolves its names lazily, so not even
        ``repro.lint.contracts`` (which the simulator uses) loads."""
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        script = ("import sys, repro.lint\n"
                  "print(*sorted(m for m in sys.modules"
                  " if m.startswith('repro.lint.')))\n")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == []


class TestCliBehaviour:
    def test_fixture_tree_fails_with_violations(self, capsys):
        exit_code = main([str(FIXTURES)])
        captured = capsys.readouterr().out
        assert exit_code == 1
        for rule_id in ("REPRO001", "REPRO002", "REPRO003", "REPRO004",
                        "REPRO005", "REPRO006", "REPRO007", "REPRO008"):
            assert rule_id in captured

    def test_list_rules(self, capsys):
        exit_code = main(["--list-rules"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        for rule_id in ("REPRO001", "REPRO002", "REPRO003", "REPRO004",
                        "REPRO005", "REPRO006", "REPRO007", "REPRO008"):
            assert rule_id in captured

    def test_list_rules_names_exactly_the_registry(self, capsys):
        assert main(["--list-rules"]) == 0
        listed = re.findall(r"^(REPRO\d{3}) ", capsys.readouterr().out,
                            flags=re.MULTILINE)
        assert sorted(listed) == [f"REPRO{n:03d}"
                                  for n in (1, 2, 3, 4, 5, 6, 7, 8, 10, 11)]

    def test_list_rules_shows_severity_and_scope(self, capsys):
        assert main(["--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for header in ("REPRO001 [error] (everywhere)",
                       "REPRO003 [warning] (sim/)",
                       "REPRO005 [error] (core/, experiments/)",
                       "REPRO007 [error] (engine/, obs/)",
                       "REPRO011 [error] (engine/)",
                       "REPRO010 [error] (whole-program)"):
            assert header in lines

    def test_missing_path_is_an_error_not_clean(self, tmp_path, capsys):
        """A typo'd path must not report clean — that would pass CI silently."""
        exit_code = main([str(tmp_path / "nope")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "no such file or directory" in captured.err

    def test_clean_path_exits_zero(self, tmp_path, capsys):
        (tmp_path / "fine.py").write_text("X = 1\n")
        exit_code = main([str(tmp_path)])
        assert exit_code == 0
        assert "clean" in capsys.readouterr().out

    def test_warning_only_tree_fails(self, tmp_path, capsys):
        """A warning is a finding: a tree whose only finding is a
        REPRO003 warning exits 1 and prints it."""
        target = tmp_path / "sim" / "sizes.py"
        target.parent.mkdir()
        target.write_text("def f():\n    return 4096\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "sizes.py:2:12: REPRO003 [warning]" in out
        assert "1 violation(s) (0 error(s), 1 warning(s))" in out

    def test_removed_options_are_usage_errors(self, tmp_path, capsys):
        """The command line is ``paths`` and ``--list-rules``; any other
        option, such as an output format, a baseline, an autofix or a
        scoping switch, is a usage error, never silently ignored."""
        (tmp_path / "fine.py").write_text("X = 1\n")
        for option in ("--format=json", "--fix", "--errors-only", "--quiet",
                       "--no-baseline", "--changed-only"):
            with pytest.raises(SystemExit) as exc:
                main([str(tmp_path), option])
            assert exc.value.code == 2, option
            assert "unrecognized arguments" in capsys.readouterr().err


BAD_SOURCE = ("import random\n"
              "def draw():\n"
              "    return random.random()\n")


class TestAuxiliaryTargets:
    def test_tests_dir_gets_aux_rules_only(self, tmp_path, capsys):
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        # REPRO004 (mutable default) is in the aux set and normally
        # scope-restricted; REPRO003 (magic literal) is not in the set.
        (tests_dir / "helper.py").write_text(
            "def record(x, acc=[]):\n"
            "    acc.append(x)\n"
            "    return acc\n")
        (tests_dir / "sizes.py").write_text(
            "def cache_bytes():\n    return 4096\n")
        exit_code = main([str(tests_dir)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "REPRO004" in out
        assert "REPRO003" not in out

    def test_fixture_subtrees_are_skipped(self, tmp_path, capsys):
        target = tmp_path / "tests" / "fixtures" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text(BAD_SOURCE)
        exit_code = main([str(tmp_path / "tests")])
        assert exit_code == 0
        assert "clean" in capsys.readouterr().out


class TestWholeProgramBudget:
    def test_full_repo_lint_under_ten_seconds(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        start = time.perf_counter()
        exit_code = main(["src", "tests", "benchmarks", "examples"])
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert exit_code == 0
        assert elapsed < 10.0, f"full-repo lint took {elapsed:.1f}s"

    def test_whole_program_rules_listed(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REPRO010" in out
        assert "whole-program" in out
