"""Every top-level def and class of src/flagcomb is used.

Written on the standard library's ast, as a lint step of its own: a
module-level function or class must be named somewhere in src/flagcomb
outside its own definition (a call, an attribute, an import), and an
export of the package __init__ counts: it names each export in a string
of its table, from which PEP 562's __getattr__ loads it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flagcomb"

# module.name -> why it stays although nothing in src/flagcomb names it
ALLOWED = {
    "durfee_analysis._rect_table":
        "the reference tests/test_law_table.py checks the law table against",
    "__init__.__getattr__": "PEP 562: the import system calls it",
    "__init__.__dir__": "PEP 562: dir() calls it",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """'module.name' of each top-level def or class in *sources* (module
    name -> source) that no module names outside the definition itself."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = node.name if isinstance(node, DEFINITIONS) else None
            if own:
                defined.append((module, own))
            used.update(name for name in _names(node) if name != own)
        if module == "__init__":
            used.update(word for n in ast.walk(ast.parse(source))
                        if isinstance(n, ast.Constant)
                        and isinstance(n.value, str)
                        for word in n.value.split())
    return [f"{module}.{name}" for module, name in defined
            if name not in used]


def test_src_has_no_unused_definitions():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert [d for d in unused_definitions(sources) if d not in ALLOWED] == []


def test_every_allowed_name_is_still_defined_and_unused():
    """An entry whose function was deleted, or that src/ now calls, is
    stale and goes."""
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert set(ALLOWED) <= set(unused_definitions(sources))


def test_checker_flags_a_planted_unused_function():
    sources = {
        "a": ("def used():\n    return 1\n\n\n"
              "def unused(k):\n    return unused(k - 1) if k else used()\n\n\n"
              "class Exported:\n    pass\n\n\n"
              "def exported_too():\n    pass\n"),
        "__init__": '_EXPORTS = {"a": """Exported\n    exported_too"""}\n',
        # a string names a definition only in __init__'s export table
        "b": '"""unused is named here"""\nfrom .a import used as u\n\nX = u()\n',
    }
    assert unused_definitions(sources) == ["a.unused"]
