"""Offline integrity audit and repair of a result-cache directory.

``python -m repro.engine fsck <dir>`` walks every entry under a
:class:`~repro.engine.cache.ResultCache` root and verifies it the same
way a lookup would -- frame magic, frame format, engine schema version,
payload byte length, payload SHA-256 digest -- plus placement invariants
a lookup never checks (the filename is a well-formed key, the entry sits
in its two-character fanout directory).  The audit is read-only by
default; ``--repair`` applies the same actions the engine itself would
take, just eagerly instead of lazily on the next lookup:

* a valid entry in the wrong fanout slot is *moved* where lookups will
  find it;
* a damaged entry -- torn write, digest mismatch, foreign schema, no
  frame -- is *quarantined* so the cell recomputes;
* orphaned temp files are reaped unconditionally (holding the exclusive
  lock proves no writer is mid-flight).

fsck takes the cache root's advisory lock **exclusive** and refuses to
run while any sweep holds it shared (:class:`CacheBusyError`): offline
maintenance never mutates entries under a live reader.  The returned
:class:`FsckReport` records every action the pass took.
"""

from __future__ import annotations

import contextlib
import os
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.engine.cache import (
    QUARANTINE_DIR,
    CacheEntryError,
    CacheLock,
    check_entry,
)
from repro.errors import ConfigurationError, ReproError

#: Expected hex length of a cache key (SHA-256 of the job fingerprint).
KEY_HEX_CHARS = 64

_HEX = set(string.hexdigits.lower())


class CacheBusyError(ReproError):
    """The cache root is advisory-locked by a live sweep."""


@dataclass
class FsckProblem:
    """One defective entry found by a pass."""

    path: str
    defect: str
    #: What the pass did: ``found`` (audit-only), ``moved`` (misplaced
    #: entry relocated), or ``quarantined`` (damaged entry set aside).
    action: str = "found"

    def describe(self) -> str:
        return f"{self.path}: {self.defect} [{self.action}]"


@dataclass
class FsckReport:
    """The outcome of one fsck pass."""

    root: str
    scanned: int = 0
    ok: int = 0
    repaired: int = 0
    quarantined: int = 0
    reaped_tmp: int = 0
    #: Entries sitting in the quarantine area when the pass finished.
    quarantine_entries: int = 0
    problems: List[FsckProblem] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No defects remain unhandled (audit found none, or repair
        actioned every one)."""
        return all(problem.action != "found" for problem in self.problems)

    def describe(self) -> str:
        lines = [f"fsck {self.root}: {self.scanned} entr"
                 f"{'y' if self.scanned == 1 else 'ies'} scanned, "
                 f"{self.ok} ok"]
        for problem in self.problems:
            lines.append(f"  {problem.describe()}")
        if self.reaped_tmp:
            lines.append(f"  reaped {self.reaped_tmp} orphaned temp "
                         f"file(s)")
        if self.quarantine_entries:
            lines.append(f"  {self.quarantine_entries} entr"
                         f"{'y' if self.quarantine_entries == 1 else 'ies'} "
                         f"in {QUARANTINE_DIR}/ (set aside for inspection)")
        lines.append("clean" if self.clean else
                     f"{sum(1 for p in self.problems if p.action == 'found')} "
                     f"defect(s) found (re-run with --repair)")
        return "\n".join(lines)


def _well_formed_key(name: str) -> bool:
    return len(name) == KEY_HEX_CHARS and all(c in _HEX for c in name)


def fsck(root: Union[str, Path], repair: bool = False) -> FsckReport:
    """Run one audit (or repair) pass over a cache root.

    Raises :class:`ConfigurationError` when ``root`` is not a directory
    and :class:`CacheBusyError` when a live sweep holds the advisory
    lock.  Quarantined entries are evidence: no pass deletes them.
    """
    root = Path(root)
    if not root.is_dir():
        raise ConfigurationError(
            f"{root} is not a cache directory (nothing to fsck)")

    report = FsckReport(root=str(root))
    lock = CacheLock(root)
    if not lock.acquire(exclusive=True, blocking=False):
        raise CacheBusyError(
            f"cache root {root} is locked by a live sweep; re-run fsck "
            f"once the sweep finishes")
    try:
        quarantine = root / QUARANTINE_DIR

        # Holding the exclusive lock proves no writer is mid-flight, so
        # every temp file is an orphan regardless of its embedded pid.
        for tmp in sorted(root.rglob("*.tmp")):
            with contextlib.suppress(OSError):
                tmp.unlink()
                report.reaped_tmp += 1

        for path in sorted(root.rglob("*.pkl")):
            if quarantine in path.parents:
                continue
            report.scanned += 1
            key = path.stem
            defect: Optional[str] = None
            damaged = False
            if not _well_formed_key(key):
                defect = (f"filename is not a {KEY_HEX_CHARS}-hex cache "
                          f"key")
                damaged = True  # no sanctioned slot exists: set it aside
            else:
                try:
                    check_entry(path.read_bytes())
                except CacheEntryError as exc:
                    defect, damaged = str(exc), True
                except OSError as exc:
                    defect, damaged = f"unreadable: {exc}", True
                else:
                    if path.parent != root / key[:2]:
                        defect = (f"valid entry misplaced outside fanout "
                                  f"slot {key[:2]}/")
            if defect is None:
                report.ok += 1
                continue
            problem = FsckProblem(path=str(path), defect=defect)
            if repair:
                if damaged:
                    _set_aside(path, quarantine, problem)
                    if problem.action == "quarantined":
                        report.quarantined += 1
                else:
                    destination = root / key[:2] / f"{key}.pkl"
                    try:
                        destination.parent.mkdir(parents=True, exist_ok=True)
                        os.replace(path, destination)
                        problem.action = "moved"
                        report.repaired += 1
                    except OSError as exc:
                        problem.defect += f" (repair failed: {exc})"
            report.problems.append(problem)

        if quarantine.is_dir():
            report.quarantine_entries = sum(
                1 for p in quarantine.iterdir() if p.is_file())
    finally:
        lock.release()
    return report


def _set_aside(path: Path, quarantine: Path, problem: FsckProblem) -> None:
    """Move a damaged entry into the quarantine area."""
    destination = quarantine / f"{path.stem}.quarantined"
    try:
        destination.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, destination)
        problem.action = "quarantined"
    except OSError as exc:
        problem.defect += f" (quarantine failed: {exc})"
