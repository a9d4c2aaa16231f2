"""``scripts/check.sh`` keeps its promise to leave the checkout as it found
it: its first and last steps compare ``git status``.

The two steps are cut out of the script by their marker lines and run
around a stand-in for the gate's middle in a scratch git repository.
"""

from __future__ import annotations

import os
import shutil
import subprocess
from pathlib import Path

import pytest

CHECK_SH = Path(__file__).resolve().parents[1] / "scripts" / "check.sh"

pytestmark = pytest.mark.skipif(
    shutil.which("git") is None or shutil.which("bash") is None,
    reason="needs git and bash")


def _tree_check_script(middle: str) -> str:
    """The gate's opening status record and closing comparison, with
    ``middle`` in place of everything between them."""
    text = CHECK_SH.read_text(encoding="utf-8")
    record = text[text.index('tree_before=""'):
                  text.index('echo "== repro.lint')]
    compare = text[text.index('echo "== the checkout is as the gate'):]
    return f"set -euo pipefail\n{record}{middle}\n{compare}"


def _run(directory: Path, middle: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    return subprocess.run(["bash", "-c", _tree_check_script(middle)],
                          cwd=directory, env=env, capture_output=True,
                          text=True)


@pytest.fixture()
def checkout(tmp_path):
    repo = tmp_path / "checkout"
    repo.mkdir()
    (repo / "tracked.txt").write_text("a\n")
    env = {**{k: v for k, v in os.environ.items()
              if not k.startswith("GIT_")},
           "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@example.invalid",
           "GIT_COMMITTER_NAME": "t",
           "GIT_COMMITTER_EMAIL": "t@example.invalid"}
    for argv in (["git", "init", "-q"], ["git", "add", "tracked.txt"],
                 ["git", "commit", "-qm", "init"]):
        subprocess.run(argv, cwd=repo, env=env, check=True)
    return repo


def test_an_untouched_checkout_passes(checkout):
    (checkout / "already-untracked.txt").write_text("x\n")
    done = _run(checkout, "true")
    assert done.returncode == 0, done.stderr
    assert "unchanged" in done.stdout


def test_a_written_file_fails_the_gate(checkout):
    done = _run(checkout, "echo b > tracked.txt; echo x > stray.txt")
    assert done.returncode == 1
    assert "M tracked.txt" in done.stderr
    assert "?? stray.txt" in done.stderr


def test_outside_a_work_tree_the_step_is_skipped(tmp_path):
    done = _run(tmp_path, "echo x > stray.txt")
    assert done.returncode == 0, done.stderr
    assert "skipped: not a git work tree" in done.stdout
