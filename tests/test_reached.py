"""Reachability census of ``src/repro``: no public definition only tests read.

A public function, method, class, module constant or instance attribute
(``self.name = ...``, the engine's and the simulator's counters) stays in
``src/repro`` only if code in ``src/``, ``scripts/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` (``perfbench/tests/`` excluded) names it,
or if a test compares an implementation against it; those are the
:data:`ORACLES`, each with its reason.

"Names" is read off the syntax tree, by bare name: a definition counts as
reached when its name is read as an ``ast.Attribute`` attr or imported
anywhere in those trees, or, unless it is a method or an instance
attribute (which code can only reach through an object), read as an
``ast.Name`` id.  Its own definition, a write such as ``self.hits += 1``,
docstrings and the string tables of the package roots
(``_EXPORTS``/``__all__``) do not count.  Skipped: ``_``-private names
and dunders, and functions under a called decorator
(``@register_config(...)`` builders, reached through their registry).
Class-body fields are not counted: they are the data a config or result
carries (hashed into cache keys, pickled, rendered).

Being by name, the census cannot see a definition whose name another
reached definition shares (the counter ``BTB.misses`` hides behind
``AccessStats.misses``); it only promises that what it lists is
unreached.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
#: Trees whose code counts as reaching a definition.
REACHING = ("src", "scripts", "benchmarks", "examples", "perfbench")

_DIFFERENTIAL = ("state the backend differential battery compares between "
                 "the scalar and the columnar backend")

#: Definitions only tests read, kept because a test compares an
#: implementation against them.
ORACLES: Dict[str, str] = {
    "repro.sim.cache.SetAssocCache.pollute":
        "the exact reference for bulk_pollute",
    "repro.server.stressor.Stressor.expected_llc_survival":
        "the analytic reference for the LLC decay of idle_gap",
    "repro.fleet.result.LatencyHistogram.observe":
        "the per-latency reference for observe_many",
    "repro.core.metadata.MetadataBuffer.encoded_blocks":
        "the block set a replay of the buffer must schedule",
    "repro.experiments.paper_bands.verify":
        "the band checker ROADMAP's `verify` command is specified to call",
    "repro.experiments.paper_bands.BandReport.all_passed":
        "the verdict of that band checker",
    "repro.core.recorder.JukeboxRecorder.l2_misses_seen": _DIFFERENTIAL,
    "repro.core.recorder.JukeboxRecorder.entries_written": _DIFFERENTIAL,
    "repro.sim.branch.SiteBranchModel.cold_mispredicts": _DIFFERENTIAL,
    "repro.sim.branch.SiteBranchModel.executions": _DIFFERENTIAL,
    "repro.sim.branch.BTB.lookups": _DIFFERENTIAL,
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _self_attributes(method: ast.AST) -> Iterator[str]:
    """Public attributes a method assigns on ``self``."""
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self" and _public(target.attr)):
                yield target.attr


#: A public definition: qualified name, bare name, and whether it is a
#: method or an instance attribute.
Definition = Tuple[str, str, bool]


def _definitions(body: List[ast.stmt], prefix: str,
                 in_class: bool) -> Iterator[Definition]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = any(isinstance(d, ast.Call) for d in node.decorator_list)
            if _public(node.name) and not called:
                yield f"{prefix}.{node.name}", node.name, in_class
            if in_class:
                for attr in _self_attributes(node):
                    yield f"{prefix}.{attr}", attr, True
        elif isinstance(node, ast.ClassDef):
            if _public(node.name):
                yield f"{prefix}.{node.name}", node.name, False
            yield from _definitions(node.body, f"{prefix}.{node.name}",
                                    in_class=True)
        elif not in_class and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name) and _public(target.id):
                    yield f"{prefix}.{target.id}", target.id, False


def public_definitions() -> List[Definition]:
    """Every public definition in ``src/repro``."""
    found: List[Definition] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(_definitions(tree.body, _module_name(path),
                                  in_class=False))
    return found


def referenced_names() -> Tuple[Set[str], Set[str]]:
    """Names read as attributes or imported, and names read bare, by code
    in the reaching trees."""
    through_objects: Set[str] = set()
    bare: Set[str] = set()
    for tree_name in REACHING:
        for path in sorted((REPO / tree_name).rglob("*.py")):
            if path.relative_to(REPO).parts[:2] == ("perfbench", "tests"):
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and not isinstance(
                        node.ctx, ast.Store):
                    bare.add(node.id)
                elif isinstance(node, ast.Attribute) and not isinstance(
                        node.ctx, ast.Store):
                    through_objects.add(node.attr)
                elif isinstance(node, ast.alias):
                    through_objects.update(node.name.split("."))
    return through_objects, bare


def unreached() -> List[str]:
    through_objects, bare = referenced_names()
    return sorted({qualified
                   for qualified, name, member in public_definitions()
                   if name not in through_objects
                   and (member or name not in bare)})


def test_every_public_definition_is_reached():
    stray = [name for name in unreached() if name not in ORACLES]
    assert not stray, (
        "public definitions that no code outside tests names; delete "
        "them, or list a test oracle in ORACLES with its reason:\n  "
        + "\n  ".join(stray))


def test_every_oracle_is_an_unreached_definition():
    """A keep-list entry whose definition is gone, or is now reached by
    code, is stale."""
    stale = sorted(set(ORACLES) - set(unreached()))
    assert not stale, f"stale ORACLES entries: {stale}"


def test_every_oracle_has_a_one_line_reason():
    assert all(reason.strip() and "\n" not in reason
               for reason in ORACLES.values())
