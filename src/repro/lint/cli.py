"""Command-line front-end: ``python -m repro.lint [paths]``.

Prints every finding as ``path:line:col: RULE [severity] message`` and a
one-line summary.  Exit status is 0 when the tree is clean, 1 when any
finding remains (warnings included) and 2 when a path does not exist.

Target classes
--------------
``src/`` trees get the full REPRO00x rule set plus, when the ``repro``
package root is found under one of the lint paths, the *whole-program*
passes: the interprocedural taint analysis (:mod:`repro.lint.flow`) and
the worker-safety rule REPRO010 (:mod:`repro.lint.soundness`).
``tests/``, ``benchmarks/`` and ``examples/`` are auxiliary targets: they
are linted with REPRO001/REPRO004/REPRO005 only (scope restrictions
lifted), because determinism of fixtures and harnesses matters but
simulation-path rules do not apply there.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.engine import Violation, iter_python_files, lint_file
from repro.lint.rules import ALL_RULES, get_rule

#: Directory names treated as auxiliary lint targets.
AUX_DIRS = ("tests", "benchmarks", "examples")

#: Rules applied to auxiliary targets (with path scopes lifted).
AUX_RULE_IDS = ("REPRO001", "REPRO004", "REPRO005")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=("Determinism & invariant static analysis for the "
                     "lukewarm-serverless reproduction."),
    )
    parser.add_argument(
        "paths", nargs="*",
        help=("files or directories to lint (default: src/ plus any of "
              "tests/, benchmarks/, examples/ that exist, else .)"),
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry (per-file and whole-program) and exit",
    )
    return parser


def _default_paths() -> List[str]:
    if not Path("src").is_dir():
        return ["."]
    paths = ["src"]
    paths.extend(d for d in AUX_DIRS if Path(d).is_dir())
    return paths


def _print_rules() -> None:
    from repro.lint.soundness import WHOLE_PROGRAM_RULES

    for rule in ALL_RULES:
        scope = ", ".join(rule.scopes) if rule.scopes else "everywhere"
        print(f"{rule.id} [{rule.severity}] ({scope})")
        print(f"    {rule.description}")
    for wp_rule in WHOLE_PROGRAM_RULES:
        print(f"{wp_rule.id} [{wp_rule.severity}] (whole-program)")
        print(f"    {wp_rule.description}")


def _aux_rules() -> List:
    """Unscoped instances of the auxiliary-target rule subset."""
    rules = []
    for rule_id in AUX_RULE_IDS:
        rule = type(get_rule(rule_id))()
        rule.scopes = None
        rule.excludes = ()
        rules.append(rule)
    return rules


def _is_aux(file: Path, root: Path) -> bool:
    """Whether a file belongs to an auxiliary target tree.

    Classified by the *lint root* (``tests/`` passed as a path) or by an
    auxiliary directory component below it (linting ``.`` still treats
    ``./tests/...`` as auxiliary).  An explicitly passed fixture tree
    (e.g. ``tests/lint/fixtures`` as the root) keeps the full rule set:
    the caller asked about that tree specifically.
    """
    if root.name in AUX_DIRS:
        return True
    try:
        rel_parts = Path(file).resolve().relative_to(root.resolve()).parts
    except ValueError:
        return False
    return any(part in AUX_DIRS for part in rel_parts[:-1])


def _find_repro_root(paths: Sequence[str]) -> Optional[Path]:
    """The ``repro`` package directory under the lint paths, if any."""
    for raw in paths:
        path = Path(raw).resolve()
        for candidate in (path, path / "repro", path / "src" / "repro"):
            if (candidate.name == "repro"
                    and (candidate / "__init__.py").is_file()):
                return candidate
    return None


def _whole_program_violations(root: Path) -> List[Violation]:
    from repro.lint import flow, soundness
    from repro.lint.graph import ProjectGraph

    graph = ProjectGraph.from_package(root, "repro")
    violations = flow.analyze(graph)
    violations.extend(soundness.check_worker_safety(graph))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0

    paths = args.paths or _default_paths()
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        for p in missing:
            print(f"repro-lint: error: no such file or directory: {p}",
                  file=sys.stderr)
        return 2

    aux_rules = _aux_rules()
    violations: List[Violation] = []
    files_seen = 0
    for file, root in iter_python_files(Path(p) for p in paths):
        aux = _is_aux(file, root)
        if aux and "fixtures" in file.parts:
            # Lint-rule fixtures *are* deliberate violations; linting
            # them as part of the tests/ target would fail the gate on
            # the very files that test the rules.
            continue
        files_seen += 1
        violations.extend(lint_file(file, rules=aux_rules if aux else None,
                                    root=root))

    repro_root = _find_repro_root(paths)
    if repro_root is not None:
        violations.extend(_whole_program_violations(repro_root))

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    for violation in violations:
        print(violation.format())
    if not violations:
        print(f"repro-lint: clean ({files_seen} file(s))")
        return 0
    errors = sum(1 for v in violations if v.severity == "error")
    print(f"repro-lint: {len(violations)} violation(s) "
          f"({errors} error(s), {len(violations) - errors} warning(s)) "
          f"in {files_seen} file(s)")
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
