"""Every top-level import in the package modules is used, and the package
root's __all__ matches its re-exports.

Checked with the standard library's ast alone, so no linter is needed. The
package __init__ is exempt from the unused-import check: its imports are the
public re-exports.
"""
import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "instance_embed"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that the module never refers to."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_checker_flags_unused_and_spares_used():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import Optional, Sequence\n"
        "def f(x: Sequence) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(3, "osp"), (4, "Optional")]


def test_modules_found():
    assert {"cli.py", "clustering.py", "fileio.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def root_imports() -> set:
    """Public names the package __init__ binds with a top-level import."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_all_entry_resolves():
    package = importlib.import_module("instance_embed")
    assert len(set(package.__all__)) == len(package.__all__)
    assert [n for n in package.__all__ if not hasattr(package, n)] == []


def test_every_root_import_is_in_all():
    package = importlib.import_module("instance_embed")
    assert "EmbeddingField" in root_imports()
    assert sorted(root_imports() - set(package.__all__)) == []
