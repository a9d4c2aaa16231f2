"""Plain-text rendering of experiment results.

Each experiment module returns structured results; these helpers render
them as aligned ASCII tables and stacked bar charts so the benchmark
harness can print "the same rows/series the paper reports" without any
plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

#: Width of the bar area in bar charts.
_BAR_WIDTH = 40


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_stacked_bars(labels: Sequence[str],
                        stacks: Sequence[Dict[str, float]],
                        order: Sequence[str],
                        symbols: Optional[Dict[str, str]] = None,
                        title: Optional[str] = None) -> str:
    """Render stacked horizontal bars (the CPI stacks of Fig. 2).

    ``stacks`` maps category -> value per label; ``order`` fixes segment
    order; ``symbols`` maps category -> a single fill character.
    """
    if symbols is None:
        default = "RFBSD"
        symbols = {cat: default[i % len(default)] for i, cat in enumerate(order)}
    totals = [sum(stack.get(cat, 0.0) for cat in order) for stack in stacks]
    peak = max(totals, default=1.0) or 1.0
    width = max(len(label) for label in labels) if labels else 0
    lines: List[str] = []
    if title:
        lines.append(title)
        legend = "  ".join(f"{symbols[cat]}={cat}" for cat in order)
        lines.append(f"  [{legend}]")
    for label, stack, total in zip(labels, stacks, totals):
        bar = ""
        for cat in order:
            seg = int(round(stack.get(cat, 0.0) / peak * _BAR_WIDTH))
            bar += symbols[cat] * seg
        lines.append(f"{label.ljust(width)} | {bar} {total:.2f}")
    return "\n".join(lines)
