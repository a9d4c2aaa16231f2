"""Smoke tests: the example scripts run end-to-end and print results."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 400) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestQuickstart:
    def test_runs_and_reports_speedup(self):
        out = run_example("quickstart.py")
        assert "lukewarm baseline" in out
        assert "vs. baseline" in out
        assert "jukebox replay" in out


class TestPrefetcherComparison:
    def test_fast_mode(self):
        out = run_example("prefetcher_comparison.py", "--fast")
        assert "GEOMEAN" in out
        for config in ("PIF", "PIF-ideal", "Jukebox", "Perfect I$"):
            assert config in out


@pytest.mark.parametrize("script", ["server_characterization.py",
                                    "custom_function.py"])
def test_other_examples_run(script):
    out = run_example(script)
    assert "|" in out  # produced at least one table


def test_every_example_is_smoke_tested():
    """The tests above cover every script in examples/, so a new example
    cannot land without a smoke run."""
    covered = {"quickstart.py", "prefetcher_comparison.py",
               "server_characterization.py", "custom_function.py"}
    assert {p.name for p in EXAMPLES.glob("*.py")} == covered
