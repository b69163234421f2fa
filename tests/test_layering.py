"""Layering guard: no module of the package or of the scripts reads a
private (`_`-prefixed) name of another `ars` module, either through an
attribute (`construct._normalize_covers`) or through a from-import
(`from .structure import _nonempty_tables`).  Dunder names are public.
A second guard finds private module-level names of the package that
their own module never reads: a helper that a change left behind."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ars").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_ars(module: str) -> bool:
    return module == "ars" or module.startswith("ars.")


def _absolute(node: ast.ImportFrom, package: str) -> str:
    if not node.level:
        return node.module or ""
    base = package.rsplit(".", node.level - 1)[0]
    return f"{base}.{node.module}" if node.module else base


def _dotted(node: ast.expr, names: dict[str, str]) -> str | None:
    """The `ars` path an expression like `flow` or `ars.flow` names."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, names)
        return None if base is None else f"{base}.{node.attr}"
    return None


def private_reads(path: Path) -> list[str]:
    in_package = path.parent.name == "ars"
    own = ("ars" if path.stem == "__init__" else f"ars.{path.stem}") if in_package else ""
    tree = ast.parse(path.read_text(), filename=str(path))
    where = str(path.relative_to(ROOT))
    found = []
    names: dict[str, str] = {}  # local name -> the ars path it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_ars(alias.name):
                    top = alias.name if alias.asname else alias.name.split(".")[0]
                    names[alias.asname or top] = top
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node, "ars" if in_package else "")
            if not _is_ars(source):
                continue
            for alias in node.names:
                if _private(alias.name) and source != own:
                    found.append(f"{where}:{node.lineno}: from {source} import {alias.name}")
                names[alias.asname or alias.name] = f"{source}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = _dotted(node.value, names)
            if owner is not None and owner != own:
                found.append(f"{where}:{node.lineno}: {owner}.{node.attr}")
    return found


def test_no_private_reads_across_modules():
    assert len(SOURCES) > 10
    found = [line for path in SOURCES for line in private_reads(path)]
    assert found == []


def orphaned_privates(path: Path) -> list[str]:
    """Module-level private functions, classes and constants that nothing
    else in their own module reads; a read inside a name's own
    definition, such as a recursive call, does not count."""
    tree = ast.parse(path.read_text(), filename=str(path))
    where = str(path.relative_to(ROOT))
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        own = {id(inner) for inner in ast.walk(node)}
        for name in filter(_private, defined):
            if not any(
                isinstance(use, ast.Name) and use.id == name and isinstance(use.ctx, ast.Load)
                and id(use) not in own
                for use in ast.walk(tree)
            ):
                found.append(f"{where}:{node.lineno}: {name}")
    return found


def test_no_orphaned_private_names():
    sources = sorted((ROOT / "src" / "ars").glob("*.py"))
    found = [line for path in sources for line in orphaned_privates(path)]
    assert found == []
