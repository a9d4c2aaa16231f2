"""Command-line front-end: ``python -m repro.lint [paths]``.

Exit status is 0 when the tree is clean (or every finding is
grandfathered in the baseline) and 1 when any fresh violation remains
(pass ``--errors-only`` to let warnings through).  ``--fix`` applies the
autofixes carried by fixable rules (currently REPRO006's ``sorted(...)``
wrap) in place, then reports what is left.

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

Machine output and baselines
----------------------------
``--format json|sarif`` renders canonical machine-readable reports
(:mod:`repro.lint.formats`).  A committed baseline file
(``lint-baseline.json`` by default, see :mod:`repro.lint.baseline`)
grandfathers known findings: the exit code only reflects findings *not*
in the baseline, and ``--write-baseline`` regenerates the file.
``--changed-only`` restricts the per-file pass to files reported changed
by git (the whole-program passes still analyse the whole package, so an
edit still re-audits every caller it reaches).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from repro.lint import baseline as baseline_mod
from repro.lint.engine import (
    Violation,
    apply_fixes,
    iter_python_files,
    lint_file,
)
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
    parser.add_argument(
        "--fix", action="store_true",
        help="apply available autofixes in place before reporting",
    )
    parser.add_argument(
        "--errors-only", action="store_true",
        help="exit 0 when only warnings remain",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-violation output; print only the summary",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (json and sarif are canonical documents)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        default=baseline_mod.DEFAULT_BASELINE,
        help=("baseline file of grandfathered findings (default: "
              "%(default)s if present; a missing file is an empty "
              "baseline)"),
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; every finding is fresh",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--changed-only", action="store_true",
        help=("lint only files git reports as changed (staged, unstaged "
              "or untracked); the whole-program passes still analyse the "
              "whole package"),
    )
    parser.add_argument(
        "--no-whole-program", action="store_true",
        help=("skip the whole-program passes (taint flow, REPRO010) "
              "even when the repro package root is found"),
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
        fix = "autofixable" if rule.autofixable else "no autofix"
        scope = ", ".join(rule.scopes) if rule.scopes else "everywhere"
        print(f"{rule.id} [{rule.severity}, {fix}] ({scope})")
        print(f"    {rule.description}")
    for wp_rule in WHOLE_PROGRAM_RULES:
        print(f"{wp_rule.id} [{wp_rule.severity}, no autofix] "
              f"(whole-program)")
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


def _changed_files() -> Optional[Set[Path]]:
    """Resolved paths git reports changed vs HEAD, plus untracked files.

    Returns None (with a message on stderr) when git is unavailable or
    the tree is not a repository -- the caller then falls back to a full
    lint rather than silently linting nothing.
    """
    changed: Set[Path] = set()
    for cmd in (["git", "diff", "--name-only", "HEAD"],
                ["git", "ls-files", "--others", "--exclude-standard"]):
        try:
            result = subprocess.run(cmd, capture_output=True, text=True,
                                    check=True)
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"repro-lint: --changed-only unavailable "
                  f"({' '.join(cmd)}: {exc}); linting everything",
                  file=sys.stderr)
            return None
        for line in result.stdout.splitlines():
            line = line.strip()
            if line:
                changed.add(Path(line).resolve())
    return changed


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


def _rule_descriptions() -> dict:
    from repro.lint.soundness import WHOLE_PROGRAM_RULES

    descriptions = {rule.id: rule.description for rule in ALL_RULES}
    descriptions.update(
        {rule.id: rule.description for rule in WHOLE_PROGRAM_RULES})
    return descriptions


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

    changed: Optional[Set[Path]] = None
    if args.changed_only:
        changed = _changed_files()

    aux_rules = _aux_rules()
    violations: List[Violation] = []
    files_seen = 0
    fixes_applied = 0
    for file, root in iter_python_files(Path(p) for p in paths):
        if changed is not None and file.resolve() not in changed:
            continue
        aux = _is_aux(file, root)
        if aux and "fixtures" in file.parts:
            # Lint-rule fixtures *are* deliberate violations; linting
            # them as part of the tests/ target would fail the gate on
            # the very files that test the rules.
            continue
        files_seen += 1
        rules = aux_rules if aux else None
        found = lint_file(file, rules=rules, root=root)
        if args.fix and any(v.fixes for v in found):
            source = file.read_text(encoding="utf-8")
            new_source, fixed = apply_fixes(source, found)
            if fixed:
                file.write_text(new_source, encoding="utf-8")
                fixes_applied += fixed
                found = lint_file(file, rules=rules, root=root)
        violations.extend(found)

    repro_root = None if args.no_whole_program else _find_repro_root(paths)
    if repro_root is not None:
        violations.extend(_whole_program_violations(repro_root))

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))

    if args.write_baseline:
        baseline_mod.Baseline.from_violations(violations).write(
            Path(args.baseline))
        print(f"repro-lint: wrote {len(violations)} finding(s) to "
              f"baseline {args.baseline}")
        return 0

    baseline = (baseline_mod.Baseline.empty() if args.no_baseline
                else baseline_mod.Baseline.load(Path(args.baseline)))
    fresh, grandfathered = baseline.partition(violations)

    if args.format == "json":
        from repro.lint.formats import render_json
        print(render_json(fresh, baselined=grandfathered,
                          files=files_seen, fixes_applied=fixes_applied))
    elif args.format == "sarif":
        from repro.lint.formats import render_sarif
        print(render_sarif(fresh, rule_descriptions=_rule_descriptions()))
    else:
        for violation in fresh:
            if not args.quiet:
                print(violation.format())
        errors = sum(1 for v in fresh if v.severity == "error")
        warnings = len(fresh) - errors
        if fixes_applied:
            print(f"repro-lint: applied {fixes_applied} autofix(es)")
        suffix = (f", {len(grandfathered)} grandfathered"
                  if grandfathered else "")
        if fresh:
            print(f"repro-lint: {len(fresh)} violation(s) "
                  f"({errors} error(s), {warnings} warning(s)) "
                  f"in {files_seen} file(s){suffix}")
        else:
            print(f"repro-lint: clean ({files_seen} file(s){suffix})")

    if args.errors_only:
        return 1 if any(v.severity == "error" for v in fresh) else 0
    return 1 if fresh else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
