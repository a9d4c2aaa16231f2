"""Tests for machine-readable output, baselines, and the CLI plumbing
that ties them together (``--format``, ``--write-baseline``,
``--changed-only``), plus the whole-program performance budget."""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path

import pytest

from repro.lint.baseline import Baseline, fingerprint
from repro.lint.cli import main
from repro.lint.engine import Violation
from repro.lint.formats import render_json, render_sarif

REPO_ROOT = Path(__file__).resolve().parents[2]


def _violation(rule="REPRO001", path="src/repro/sim/core.py", line=10,
               message="unseeded random.random()") -> Violation:
    return Violation(rule_id=rule, severity="error", path=path, line=line,
                     col=4, message=message)


class TestRenderJson:
    def test_document_shape(self):
        doc = json.loads(render_json(
            [_violation()], baselined=[_violation(line=99)],
            files=3, fixes_applied=1))
        assert doc["version"] == 1
        assert doc["files"] == 3
        assert doc["fixes_applied"] == 1
        assert doc["summary"] == {"total": 1, "errors": 1, "warnings": 0,
                                  "grandfathered": 1}
        entry = doc["violations"][0]
        assert entry["rule"] == "REPRO001"
        assert entry["line"] == 10
        assert entry["col"] == 5  # 1-indexed for humans
        assert "baselined" not in entry
        assert doc["baselined"][0]["baselined"] is True

    def test_canonical_output_is_byte_stable(self):
        violations = [_violation(), _violation(rule="REPRO006", line=2)]
        assert render_json(violations) == render_json(list(violations))


class TestRenderSarif:
    def test_document_shape(self):
        doc = json.loads(render_sarif(
            [_violation()], rule_descriptions={"REPRO001": "unseeded rng"}))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        assert rules["REPRO001"]["shortDescription"]["text"] == "unseeded rng"
        result = run["results"][0]
        assert result["ruleId"] == "REPRO001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"] == {"startLine": 10, "startColumn": 5}

    def test_rules_cover_descriptions_even_without_findings(self):
        doc = json.loads(render_sarif([], rule_descriptions={
            "REPRO010": "worker safety"}))
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == ["REPRO010"]
        assert doc["runs"][0]["results"] == []


class TestBaseline:
    def test_fingerprint_is_line_independent(self):
        assert fingerprint(_violation(line=10)) == \
            fingerprint(_violation(line=200))

    def test_fingerprint_distinguishes_rule_path_message(self):
        base = fingerprint(_violation())
        assert fingerprint(_violation(rule="REPRO006")) != base
        assert fingerprint(_violation(path="src/other.py")) != base
        assert fingerprint(_violation(message="different")) != base

    def test_missing_file_loads_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert len(baseline) == 0

    def test_write_load_roundtrip(self, tmp_path):
        violations = [_violation(), _violation(line=20),
                      _violation(rule="REPRO006")]
        path = tmp_path / "base.json"
        Baseline.from_violations(violations).write(path)
        loaded = Baseline.load(path)
        assert len(loaded) == 3
        fresh, grandfathered = loaded.partition(violations)
        assert fresh == []
        assert len(grandfathered) == 3

    def test_partition_respects_per_fingerprint_counts(self):
        # Two identical findings baselined; a third occurrence is fresh.
        baseline = Baseline.from_violations(
            [_violation(line=1), _violation(line=2)])
        fresh, grandfathered = baseline.partition(
            [_violation(line=1), _violation(line=2), _violation(line=3)])
        assert len(grandfathered) == 2
        assert len(fresh) == 1

    def test_written_file_is_reviewable(self, tmp_path):
        path = tmp_path / "base.json"
        Baseline.from_violations([_violation()]).write(path)
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        (entry,) = doc["findings"].values()
        assert entry["rule"] == "REPRO001"
        assert entry["count"] == 1
        assert "unseeded" in entry["message"]


BAD_SOURCE = ("import random\n"
              "def draw():\n"
              "    return random.random()\n")


@pytest.fixture()
def bad_tree(tmp_path):
    (tmp_path / "bad.py").write_text(BAD_SOURCE)
    return tmp_path


class TestCliFormats:
    def test_json_format_violating_tree(self, bad_tree, capsys):
        exit_code = main([str(bad_tree), "--format", "json",
                          "--no-baseline"])
        doc = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert doc["summary"]["total"] == 1
        assert doc["violations"][0]["rule"] == "REPRO001"

    def test_json_format_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("X = 1\n")
        exit_code = main([str(tmp_path), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert doc["summary"]["total"] == 0
        assert doc["files"] == 1

    def test_sarif_format(self, bad_tree, capsys):
        exit_code = main([str(bad_tree), "--format", "sarif",
                          "--no-baseline"])
        doc = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        results = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["REPRO001"]


class TestCliBaseline:
    def test_write_then_pass(self, bad_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([str(bad_tree), "--write-baseline",
                     "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        # Grandfathered finding no longer fails the gate...
        exit_code = main([str(bad_tree), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "grandfathered" in out
        # ...unless the baseline is disabled.
        assert main([str(bad_tree), "--baseline", str(baseline),
                     "--no-baseline"]) == 1

    def test_new_finding_still_fails(self, bad_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([str(bad_tree), "--write-baseline",
                     "--baseline", str(baseline)]) == 0
        (bad_tree / "worse.py").write_text(
            "import random\ndef roll():\n    return random.randint(1, 6)\n")
        capsys.readouterr()
        exit_code = main([str(bad_tree), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "worse.py" in out
        assert "bad.py" not in out  # grandfathered, not re-reported

    def test_json_reports_grandfathered(self, bad_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        main([str(bad_tree), "--write-baseline", "--baseline",
              str(baseline)])
        capsys.readouterr()
        exit_code = main([str(bad_tree), "--format", "json",
                          "--baseline", str(baseline)])
        doc = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert doc["summary"]["grandfathered"] == 1
        assert doc["baselined"][0]["baselined"] is True


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
        exit_code = main([str(tests_dir), "--no-baseline"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "REPRO004" in out
        assert "REPRO003" not in out

    def test_fixture_subtrees_are_skipped(self, tmp_path, capsys):
        target = tmp_path / "tests" / "fixtures" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text(BAD_SOURCE)
        exit_code = main([str(tmp_path / "tests"), "--no-baseline"])
        assert exit_code == 0
        assert "clean" in capsys.readouterr().out


class TestChangedOnly:
    def _git(self, cwd, *argv):
        subprocess.run(["git", *argv], cwd=cwd, check=True,
                       capture_output=True)

    def _repo(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "config", "user.email", "lint@test")
        self._git(tmp_path, "config", "user.name", "lint")
        return tmp_path

    def test_committed_violations_are_skipped(self, tmp_path, monkeypatch,
                                              capsys):
        repo = self._repo(tmp_path)
        (repo / "old.py").write_text(BAD_SOURCE)
        self._git(repo, "add", "old.py")
        self._git(repo, "commit", "-qm", "seed")
        monkeypatch.chdir(repo)
        exit_code = main([".", "--changed-only"])
        assert exit_code == 0
        assert "clean" in capsys.readouterr().out

    def test_changed_files_are_linted(self, tmp_path, monkeypatch, capsys):
        repo = self._repo(tmp_path)
        (repo / "old.py").write_text("X = 1\n")
        self._git(repo, "add", "old.py")
        self._git(repo, "commit", "-qm", "seed")
        (repo / "fresh.py").write_text(BAD_SOURCE)  # untracked
        monkeypatch.chdir(repo)
        exit_code = main([".", "--changed-only"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "fresh.py" in out


class TestWholeProgramBudget:
    def test_full_repo_lint_under_ten_seconds(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        start = time.perf_counter()
        exit_code = main(["src", "tests", "benchmarks", "examples",
                          "--quiet"])
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert exit_code == 0
        assert elapsed < 10.0, f"full-repo lint took {elapsed:.1f}s"

    def test_whole_program_rules_listed(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REPRO010" in out
        assert "whole-program" in out
