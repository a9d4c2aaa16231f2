"""CLI tests, including the tier-1 gate: the shipped tree must lint clean."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

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
    def test_importing_the_package_loads_only_the_contracts(self):
        """``repro.lint`` imports nothing itself; what loads with it is
        ``repro.lint.contracts``, which the simulator (imported by the
        ``repro`` root) uses on every run."""
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        script = ("import sys, repro.lint\n"
                  "print(*sorted(m for m in sys.modules"
                  " if m.startswith('repro.lint.')))\n")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["repro.lint.contracts"]


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

    def test_errors_only_lets_warnings_pass(self, tmp_path, capsys):
        target = tmp_path / "sim" / "sizes.py"
        target.parent.mkdir()
        target.write_text("def f():\n    return 4096\n")
        assert main([str(tmp_path)]) == 1
        capsys.readouterr()
        assert main([str(tmp_path), "--errors-only"]) == 0

    def test_fix_rewrites_file_in_place(self, tmp_path, capsys):
        target = tmp_path / "sim" / "listing.py"
        target.parent.mkdir()
        shutil.copy(FIXTURES / "sim" / "bad_wallclock.py", target)
        exit_code = main([str(tmp_path), "--fix"])
        captured = capsys.readouterr().out
        assert "applied 1 autofix" in captured
        assert "sorted(os.listdir(directory))" in target.read_text()
        # time.time() has no autofix, so the tree still fails.
        assert exit_code == 1
        assert "REPRO006" in captured
