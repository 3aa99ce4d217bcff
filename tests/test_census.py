"""Census of the package surface: every public def or class in
``src/repro`` is named by code somewhere in ``src/``, ``benchmarks/``
or ``examples/``, or stands on :data:`ALLOWED` with its reason.

"Named" means a code reference found by walking the syntax tree: a
name, an attribute, an import outside a package ``__init__`` (those
are re-exports, not use), a string holding a dotted name (the e2e span
tables name their targets that way), or a ``repro.``-qualified path
inside a string (an error message pointing at a remedy).  Docstrings,
comments and ``__all__`` do not count.  Methods are judged by their
bare name, so a method is in use when any class's method of that name
is called.  Tests do not count either: code that only its own tests
call is not part of the system.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"

#: Uncalled by the census's rules, kept on purpose: ``module:qualname``
#: to the one-line reason.
ALLOWED = {
    "repro.allocation.base:PartitionFinder.find_free_unique":
        "test reference: tests/oracles/crossval.py checks every finder's deduplicated output",
    "repro.experiments.pool:WarmPool.alive":
        "test reference: the warm-pool tests observe the pool's health through it",
    "repro.geometry.coords:manhattan_torus_distance":
        "test reference: the scalar distance the burst generator's _neighbourhood is checked against",
    "repro.geometry.partition:Partition.node_set":
        "test reference: the finder and index tests compare placements as node sets",
    "repro.geometry.partition:Partition.node_indices":
        "test reference: the invariant checker reads each allocation's nodes through it",
    "repro.geometry.partition:Partition.overlaps":
        "uncalled, kept for now: only its own TestOverlaps calls it (next removal candidate)",
    "repro.geometry.torus:Torus.busy_count":
        "test reference: the invariant checker compares it with the allocation map's total",
    "repro.prediction.base:Predictor.predicts_failure":
        "test reference: the scalar form the batch predictor scoring is checked against",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")
_QUALIFIED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def public_definitions() -> dict[str, str]:
    """``module:qualname`` → the bare name code would call it by."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            out[f"{module}:{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not member.name.startswith("_"):
                        out[f"{module}:{node.name}.{member.name}"] = member.name
    return out


def named_in_code() -> set[str]:
    """Every name the code under ``src/``, ``benchmarks/`` and
    ``examples/`` refers to."""
    names: set[str] = set()
    for top in ("src", "benchmarks", "examples"):
        for path in (REPO / top).rglob("*.py"):
            reexports = path.name == "__init__.py" and top == "src"
            tree = ast.parse(path.read_text(encoding="utf-8"))
            prose = {
                id(stmt.value)
                for stmt in ast.walk(tree)
                if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias) and not reexports:
                    names.add(node.name.rpartition(".")[2])
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in prose
                    and not reexports
                ):
                    if _DOTTED.match(node.value):
                        names.update(node.value.split("."))
                    for path_ in _QUALIFIED.findall(node.value):
                        names.update(path_.split("."))
    return names


@functools.cache
def uncalled() -> frozenset[str]:
    used = named_in_code()
    return frozenset(
        qual for qual, name in public_definitions().items() if name not in used
    )


def test_every_public_definition_is_named_or_allowed():
    """A public def or class nothing calls is deleted, or allow-listed
    with its reason."""
    stray = sorted(uncalled() - set(ALLOWED))
    assert not stray, f"uncalled public definitions (delete them, or allow-list with a reason): {stray}"


def test_allow_list_is_current():
    """Each allow-listed name still exists and is still uncalled, and
    carries a reason."""
    defined = public_definitions()
    assert sorted(set(ALLOWED) - set(defined)) == [], "allow-listed but gone"
    assert sorted(set(ALLOWED) - uncalled()) == [], "allow-listed but now called"
    assert all(reason.strip() for reason in ALLOWED.values())
