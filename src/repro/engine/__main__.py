"""CLI: ``python -m repro.engine fsck CACHE_DIR [--repair]``.

Audits (and with ``--repair`` fixes) a result-cache directory: frame and
digest verification of every entry, fanout-placement checks, orphaned
temp-file reaping, quarantine accounting.  See :mod:`repro.engine.fsck`.

Exit codes: 0 when the cache is clean (or repair actioned every
defect), 1 when defects were found (or remain), 2 on usage/IO errors,
3 when a live sweep holds the cache lock.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.engine.fsck import CacheBusyError, fsck
from repro.errors import ConfigurationError

#: Exit status when the cache root is locked by a live sweep.
EXIT_BUSY = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine",
        description="Maintain repro.engine result caches.")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser(
        "fsck",
        help="verify every cache entry's frame, digest, and placement")
    check.add_argument("cache_dir", help="cache root (the --cache-dir of "
                                         "the runs that wrote it)")
    check.add_argument("--repair", action="store_true",
                       help="quarantine damaged entries and re-slot "
                            "misplaced ones instead of only reporting")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = fsck(args.cache_dir, repair=args.repair)
    except CacheBusyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUSY
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot fsck {args.cache_dir}: {exc}", file=sys.stderr)
        return 2
    print(report.describe())
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
