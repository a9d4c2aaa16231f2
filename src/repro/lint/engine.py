"""The static-analysis engine: file discovery and suppression.

The engine walks Python sources, parses each into an ``ast`` tree and runs
every applicable :class:`repro.lint.rules.Rule` over it.  Rules are scoped
by *package-relative* paths (``sim/``, ``core/``, ...) so the same rule set
works whether the tree is linted as ``src/``, ``src/repro/`` or a test
fixture directory mirroring the package layout.

Suppression comments::

    x = time.time()  # repro-lint: disable=REPRO006
    y = a == 1.0     # repro-lint: disable=all
    # repro-lint: disable-file=REPRO003   (anywhere in the file)
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: Pseudo-rule id reported for files that fail to parse.
PARSE_ERROR_ID = "REPRO000"

_LINE_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")
_FILE_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_,\s]+)")


@dataclass
class Violation:
    """One finding of one rule at one source location."""

    rule_id: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.rule_id} [{self.severity}] {self.message}")


def scope_key(path: Path, root: Optional[Path] = None) -> str:
    """Map a file path to the package-relative key rules are scoped by.

    If the path contains a ``repro`` package directory, the key is the
    POSIX path below its *last* occurrence (``.../src/repro/sim/cache.py``
    -> ``sim/cache.py``).  Otherwise the key is the path relative to
    ``root`` (or to the file's parent), with any leading ``src/`` or
    ``repro/`` components stripped -- which is what makes fixture trees
    mirroring the package layout scope correctly.
    """
    resolved = path.resolve()
    parts = resolved.parts
    if "repro" in parts:
        last = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        tail = parts[last + 1:]
        if tail:
            return "/".join(tail)
    base = root.resolve() if root is not None else resolved.parent
    if base.is_file():
        base = base.parent
    try:
        tail = resolved.relative_to(base).parts
    except ValueError:
        tail = (resolved.name,)
    tail = list(tail)
    while tail and tail[0] in ("src", "repro"):
        tail.pop(0)
    return "/".join(tail) if tail else resolved.name


def iter_python_files(paths: Iterable[Path]) -> Iterator[Tuple[Path, Path]]:
    """Yield ``(file, root)`` pairs for every ``.py`` under ``paths``,
    deterministically ordered, skipping ``__pycache__``."""
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            if root.suffix == ".py":
                yield root, root.parent
            continue
        for file in sorted(root.rglob("*.py")):
            if "__pycache__" in file.parts:
                continue
            yield file, root


def _parse_suppressions(source: str) -> Tuple[Set[str], Dict[int, Set[str]]]:
    """Return ``(file_wide_ids, line -> ids)``; ``"ALL"`` means every rule."""
    file_wide: Set[str] = set()
    by_line: Dict[int, Set[str]] = {}

    def ids_of(match: "re.Match[str]") -> Set[str]:
        names = {part.strip().upper() for part in match.group(1).split(",")}
        return {"ALL" if name == "ALL" else name for name in names if name}

    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _FILE_SUPPRESS_RE.search(text)
        if match:
            file_wide |= ids_of(match)
            continue
        match = _LINE_SUPPRESS_RE.search(text)
        if match:
            by_line.setdefault(lineno, set()).update(ids_of(match))
    return file_wide, by_line


def _is_suppressed(violation: Violation, file_wide: Set[str],
                   by_line: Dict[int, Set[str]]) -> bool:
    if "ALL" in file_wide or violation.rule_id in file_wide:
        return True
    line_ids = by_line.get(violation.line, ())
    return "ALL" in line_ids or violation.rule_id in line_ids


def lint_source(source: str, path: str, scope: str,
                rules: Sequence) -> List[Violation]:
    """Lint one in-memory source file under scope key ``scope``."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(
            rule_id=PARSE_ERROR_ID,
            severity="error",
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"file does not parse: {exc.msg}",
        )]
    file_wide, by_line = _parse_suppressions(source)
    violations: List[Violation] = []
    for rule in rules:
        if not rule.applies_to(scope):
            continue
        for violation in rule.check(tree, source, path):
            if not _is_suppressed(violation, file_wide, by_line):
                violations.append(violation)
    violations.sort(key=lambda v: (v.line, v.col, v.rule_id))
    return violations


def lint_file(path: Path, rules: Optional[Sequence] = None,
              root: Optional[Path] = None) -> List[Violation]:
    """Lint one file on disk."""
    if rules is None:
        from repro.lint.rules import ALL_RULES
        rules = ALL_RULES
    source = Path(path).read_text(encoding="utf-8")
    scope = scope_key(Path(path), root)
    return lint_source(source, str(path), scope, rules)
