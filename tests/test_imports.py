"""Every name a module of src/flagcomb imports is used in that module.

Written on the standard library's ast, as a lint step of its own: a
package __init__ imports to re-export, so it is not checked, and names
in string annotations count as used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "flagcomb"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [a for n in ast.walk(tree)
                   for a in (getattr(n, "annotation", None),
                             getattr(n, "returns", None)) if a is not None]
    for node in (n for a in annotations for n in ast.walk(a)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            expr = ast.parse(node.value, mode="eval")
            used.update(n.id for n in ast.walk(expr)
                        if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_src_module_has_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_checker_finds_an_unused_import():
    source = ("import os\nimport sys as system\n"
              "from typing import List, Dict\n"
              "def f(x: 'Dict[str, int]') -> None:\n"
              "    return system.argv, 'List'\n")
    assert unused_imports(source) == ["line 1: os", "line 3: List"]
