"""Every module-level import in ``src/repro`` is used by its module.

A name counts as used when the module reads it anywhere: in code, in an
annotation, or inside a quoted annotation. Names listed in a module's
``__all__`` are its public surface. The few other re-exports, names a
module imports only so that callers can import them from it, are
listed in :data:`REEXPORTS`.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Module (relative to ``src/repro``) -> names it imports for callers.
REEXPORTS = {
    # The superblock exit codes live in the block compiler, which
    # generates both kinds of bodies; tests import them from here.
    "dbr/superblock.py": {"EXIT_COMPLETE", "EXIT_FAULT", "EXIT_REFETCH",
                          "EXIT_RESUME", "EXIT_STALE"},
}


def imported_names(tree: ast.Module):
    """(name, line) for each name a module-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def read_names(tree: ast.Module):
    """Every name the module reads, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted)
                         if isinstance(n, ast.Name))
    return names


def exported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path, relative: str):
    tree = ast.parse(path.read_text(), filename=str(path))
    keep = read_names(tree) | exported_names(tree) \
        | REEXPORTS.get(relative, set())
    return [f"{relative}:{line}: {name}"
            for name, line in imported_names(tree) if name not in keep]


def test_no_unused_module_level_imports():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += unused_imports(path, path.relative_to(SRC).as_posix())
    assert found == []


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from typing import Dict, List\n"
                      "import os\n\n"
                      "def f(x: 'Dict[str, int]') -> None:\n"
                      "    return None\n")
    assert unused_imports(module, "module.py") == [
        "module.py:1: List", "module.py:2: os"]


def test_reexports_are_still_imported():
    for relative, names in REEXPORTS.items():
        tree = ast.parse((SRC / relative).read_text())
        assert names <= {name for name, _ in imported_names(tree)}, relative
