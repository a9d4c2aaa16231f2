"""fsck: audit/repair semantics, lock discipline, CLI exit codes."""

from __future__ import annotations

import pytest

from repro.engine import ResultCache, encode_entry
from repro.engine.__main__ import main as engine_main
from repro.engine.fsck import CacheBusyError, fsck
from repro.errors import ConfigurationError
from repro.experiments.runner import main as runner_main

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62
THIRD = "ef" + "2" * 62


def seeded_cache(root):
    cache = ResultCache(root)
    cache.put(KEY, {"cpi": 1.0})
    cache.put(OTHER, {"cpi": 2.0})
    cache.put(THIRD, {"cpi": 3.0})
    return cache


class TestAudit:
    def test_clean_cache_reports_clean(self, tmp_path):
        seeded_cache(tmp_path / "c")
        report = fsck(tmp_path / "c")
        assert report.clean
        assert report.scanned == 3 and report.ok == 3
        assert not report.problems
        assert "clean" in report.describe()

    def test_missing_root_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not a cache"):
            fsck(tmp_path / "nope")

    def test_audit_finds_but_does_not_touch_damage(self, tmp_path):
        cache = seeded_cache(tmp_path / "c")
        path = cache.path_for(KEY)
        path.write_bytes(path.read_bytes()[:-3])  # torn
        report = fsck(tmp_path / "c")
        assert not report.clean
        [problem] = report.problems
        assert problem.action == "found"
        assert "torn" in problem.defect
        assert path.exists()  # audit is read-only

    def test_audit_flags_ill_formed_keys(self, tmp_path):
        cache = seeded_cache(tmp_path / "c")
        stray = cache.root / "ab" / "not-a-key.pkl"
        stray.write_bytes(encode_entry(1))
        report = fsck(tmp_path / "c")
        [problem] = report.problems
        assert "hex cache" in problem.defect

    def test_audit_flags_misplaced_valid_entries(self, tmp_path):
        cache = seeded_cache(tmp_path / "c")
        misplaced = cache.root / "zz" / f"{KEY}.pkl"
        misplaced.parent.mkdir()
        misplaced.write_bytes(encode_entry("stray"))
        report = fsck(tmp_path / "c")
        [problem] = report.problems
        assert "misplaced" in problem.defect


class TestRepair:
    def test_repair_quarantines_damage_and_comes_back_clean(self, tmp_path):
        cache = seeded_cache(tmp_path / "c")
        cache.path_for(KEY).write_bytes(b"junk")
        torn = cache.path_for(OTHER)
        torn.write_bytes(torn.read_bytes()[:-3])
        report = fsck(tmp_path / "c", repair=True)
        assert report.clean and report.quarantined == 2
        assert {p.action for p in report.problems} == {"quarantined"}
        assert fsck(tmp_path / "c").clean
        # Quarantined slots read as misses: cells recompute.
        assert cache.get(KEY) == (False, None)
        assert cache.get(THIRD) == (True, {"cpi": 3.0})

    def test_repair_moves_misplaced_entries_into_their_slot(self, tmp_path):
        cache = seeded_cache(tmp_path / "c")
        fourth = "0f" + "3" * 62
        misplaced = cache.root / "zz" / f"{fourth}.pkl"
        misplaced.parent.mkdir()
        misplaced.write_bytes(encode_entry("found me"))
        report = fsck(tmp_path / "c", repair=True)
        assert report.clean and report.repaired == 1
        [problem] = report.problems
        assert problem.action == "moved"
        assert not misplaced.exists()
        assert cache.get(fourth) == (True, "found me")

    def test_repair_reaps_every_temp_file(self, tmp_path):
        cache = seeded_cache(tmp_path / "c")
        # Under the exclusive lock even a live pid's temp is an orphan.
        tmp = cache.root / "ab" / f".{KEY}.pkl.1.tmp"
        tmp.write_bytes(b"half")
        report = fsck(tmp_path / "c")
        assert report.reaped_tmp == 1
        assert not tmp.exists()

    def test_quarantine_is_kept_across_passes(self, tmp_path):
        cache = seeded_cache(tmp_path / "c")
        cache.path_for(KEY).write_bytes(b"junk")
        assert fsck(tmp_path / "c", repair=True).quarantine_entries == 1
        again = fsck(tmp_path / "c", repair=True)
        assert again.quarantine_entries == 1 and again.quarantined == 0
        assert (cache.root / "quarantine" / f"{KEY}.quarantined").is_file()


class TestDescribe:
    """The report's text is the CLI's only output: one line per action."""

    def test_quarantined_entry_line(self, tmp_path):
        cache = seeded_cache(tmp_path / "c")
        path = cache.path_for(KEY)
        path.write_bytes(b"junk")
        report = fsck(tmp_path / "c", repair=True)
        [problem] = report.problems
        assert report.describe().splitlines() == [
            f"fsck {tmp_path / 'c'}: 3 entries scanned, 2 ok",
            f"  {path}: {problem.defect} [quarantined]",
            "  1 entry in quarantine/ (set aside for inspection)",
            "clean",
        ]

    def test_found_defect_lines(self, tmp_path):
        cache = seeded_cache(tmp_path / "c")
        stray = cache.root / "ab" / "not-a-key.pkl"
        stray.write_bytes(encode_entry(1))
        assert fsck(tmp_path / "c").describe().splitlines() == [
            f"fsck {tmp_path / 'c'}: 4 entries scanned, 3 ok",
            f"  {stray}: filename is not a 64-hex cache key [found]",
            "1 defect(s) found (re-run with --repair)",
        ]

    def test_moved_entry_line(self, tmp_path):
        cache = seeded_cache(tmp_path / "c")
        misplaced = cache.root / "zz" / f"{THIRD}.pkl"
        misplaced.parent.mkdir()
        cache.path_for(THIRD).rename(misplaced)
        report = fsck(tmp_path / "c", repair=True)
        assert report.describe().splitlines() == [
            f"fsck {tmp_path / 'c'}: 3 entries scanned, 2 ok",
            f"  {misplaced}: valid entry misplaced outside fanout slot "
            f"ef/ [moved]",
            "clean",
        ]

    def test_reaped_temp_files_line(self, tmp_path):
        cache = seeded_cache(tmp_path / "c")
        for pid in (1, 2):
            (cache.root / "ab" / f".{KEY}.pkl.{pid}.tmp").write_bytes(b"x")
        assert fsck(tmp_path / "c").describe().splitlines() == [
            f"fsck {tmp_path / 'c'}: 3 entries scanned, 3 ok",
            "  reaped 2 orphaned temp file(s)",
            "clean",
        ]

    def test_quarantine_area_line(self, tmp_path):
        cache = seeded_cache(tmp_path / "c")
        cache.path_for(KEY).write_bytes(b"junk")
        fsck(tmp_path / "c", repair=True)
        assert fsck(tmp_path / "c").describe().splitlines() == [
            f"fsck {tmp_path / 'c'}: 2 entries scanned, 2 ok",
            "  1 entry in quarantine/ (set aside for inspection)",
            "clean",
        ]


class TestLockDiscipline:
    def test_fsck_refuses_a_live_sweeps_root(self, tmp_path):
        cache = seeded_cache(tmp_path / "c")
        cache.open()
        try:
            with pytest.raises(CacheBusyError, match="live sweep"):
                fsck(tmp_path / "c")
        finally:
            cache.close()
        assert fsck(tmp_path / "c").clean  # lock released: fsck proceeds

    def test_fsck_releases_its_exclusive_lock(self, tmp_path):
        cache = seeded_cache(tmp_path / "c")
        fsck(tmp_path / "c")
        cache.open()  # would deadlock/fail if fsck leaked the lock
        assert cache.lock.held
        cache.close()


class TestCli:
    def test_clean_exit_zero(self, tmp_path, capsys):
        seeded_cache(tmp_path / "c")
        assert engine_main(["fsck", str(tmp_path / "c")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_defects_exit_one(self, tmp_path, capsys):
        cache = seeded_cache(tmp_path / "c")
        cache.path_for(KEY).write_bytes(b"junk")
        assert engine_main(["fsck", str(tmp_path / "c")]) == 1
        assert "--repair" in capsys.readouterr().out

    def test_repair_then_clean(self, tmp_path, capsys):
        cache = seeded_cache(tmp_path / "c")
        cache.path_for(KEY).write_bytes(b"junk")
        assert engine_main(["fsck", str(tmp_path / "c"), "--repair"]) == 0
        assert engine_main(["fsck", str(tmp_path / "c")]) == 0

    def test_missing_directory_exit_two(self, tmp_path, capsys):
        assert engine_main(["fsck", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_busy_exit_three(self, tmp_path, capsys):
        cache = seeded_cache(tmp_path / "c")
        cache.open()
        try:
            assert engine_main(["fsck", str(tmp_path / "c")]) == 3
        finally:
            cache.close()
        assert "live sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--json", "--purge-quarantine"])
    def test_retired_flags_are_usage_errors(self, tmp_path, capsys, flag):
        seeded_cache(tmp_path / "c")
        with pytest.raises(SystemExit) as exc:
            engine_main(["fsck", str(tmp_path / "c"), flag, "--repair"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_audits_the_cache_a_real_run_wrote(self, tmp_path, capsys):
        root = tmp_path / "cache"
        assert runner_main(["table3", "--fast", "--functions", "Fib-G",
                            "--cache-dir", str(root)]) == 0
        capsys.readouterr()
        assert engine_main(["fsck", str(root)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"fsck {root}: 4 entries scanned, 4 ok", "clean"]
