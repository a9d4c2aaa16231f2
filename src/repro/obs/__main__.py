"""CLI: ``python -m repro.obs summarize trace.jsonl [--slowest N]``.

Exit codes: 0 on success, 1 when the trace violates the schema or is
internally inconsistent, 2 on usage/IO errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.errors import TraceSchemaError
from repro.obs.summarize import read_trace, render_summary, summarize


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0, rejected at parse time."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect repro.obs trace files.")
    sub = parser.add_subparsers(dest="command", required=True)
    summ = sub.add_parser(
        "summarize",
        help="aggregate a JSONL trace into a sweep report")
    summ.add_argument("trace", help="trace file written via --trace FILE")
    summ.add_argument("--slowest", type=_nonnegative_int, default=5,
                      metavar="N",
                      help="how many slowest cells to list (default 5)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        events = read_trace(args.trace)
        summary = summarize(events)
    except OSError as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    except TraceSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(render_summary(summary, slowest=args.slowest))
    except BrokenPipeError:
        # Downstream consumer (e.g. ``| head``) closed the pipe early;
        # that truncates output by design, it is not a failure.  Point
        # stdout at devnull so the interpreter's exit flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
