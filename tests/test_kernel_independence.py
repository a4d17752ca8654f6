"""The four kernels that check one another, and the sweep's packer, share
no code.

Written on the standard library's ast, as a lint step of its own, in the
style of test_dead_code.py.  The profile sweep (pair_distance_profile) is
checked against the direct path (chain_path), and the chain (span_chain)
against the nesting recheck (is_contained); a helper two of them shared
could let a bug agree with itself.  The sweep reads Flag._packed and never
calls the packer that built it, so that packer (flags._pack) is a fifth
root, kept apart from the chain's packer (gfq_linalg._pack_row) too.  For
each root the lint takes the closure of the module-level functions and
classes of src/flagcomb that it names, following imports between the
modules: a class pulls in all of its methods, annotations are not uses,
and the error classes of errors.py are ignored.  The five closures must be
pairwise disjoint."""

import ast
from itertools import combinations
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flagcomb"

KERNELS = (("flags", "pair_distance_profile"), ("gfq_linalg", "chain_path"),
           ("gfq_linalg", "is_contained"), ("gfq_linalg", "span_chain"),
           ("flags", "_pack"))

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST):
    """The names *node* reads, outside its annotations."""
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.Name):
                yield child.id
            elif isinstance(child, ast.AST):
                yield from _names(child)


def closures(sources: dict[str, str], kernels) -> dict[tuple, set]:
    """(module, name) of each kernel -> the (module, name) of every top-level
    def or class it reaches in *sources* (module name -> source)."""
    defs, scopes = {}, {}
    for module, source in sources.items():
        scope = scopes[module] = {}
        for node in ast.parse(source).body:
            if isinstance(node, DEFINITIONS):
                defs[module, node.name] = node
                scope[node.name] = (module, node.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    scope[alias.asname or alias.name] = (node.module,
                                                         alias.name)
    out = {}
    for kernel in kernels:
        seen, todo = set(), [kernel]
        while todo:
            key = todo.pop()
            if key in seen or key not in defs or key[0] == "errors":
                continue
            seen.add(key)
            scope = scopes[key[0]]
            todo += [scope[n] for n in _names(defs[key]) if n in scope]
        out[kernel] = seen
    return out


def shared(sources: dict[str, str], kernels) -> list[tuple]:
    """(kernel, kernel, the names both reach) for each pair that shares."""
    reach = closures(sources, kernels)
    return [(a[1], b[1], sorted(name for _, name in reach[a] & reach[b]))
            for a, b in combinations(kernels, 2) if reach[a] & reach[b]]


def test_the_four_kernels_share_no_code():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    reach = closures(sources, KERNELS)
    assert all(kernel in reach[kernel] for kernel in KERNELS)
    assert shared(sources, KERNELS) == []


def test_sweep_packer_built_on_the_chain_packer_is_caught():
    """flags._pack rewritten to call gfq_linalg._pack_row, which span_chain
    also reaches, makes the lint report the shared packer."""
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    start = sources["flags"].index("def _pack(")
    end = sources["flags"].index("\nclass Flag")
    sources["flags"] = (sources["flags"][:start]
                        + "def _pack(q, rows):\n"
                        + "    return tuple(_pack_row(q, r) for r in rows)\n"
                        + sources["flags"][end:]).replace(
        "from .gfq_linalg import (", "from .gfq_linalg import (_pack_row, ")
    assert ("span_chain", "_pack", ["_pack_row"]) in shared(sources, KERNELS)


def test_checker_finds_a_planted_shared_helper():
    """The sweep reaches _helper through a class's method; the error class
    both raise and the class named only in the chain's annotation do not
    count."""
    sources = {
        "errors": "class Bad(Exception):\n    pass\n",
        "lin": ("from .errors import Bad\n\n\n"
                "def _helper(x):\n    return x\n\n\n"
                "class Space:\n    def add(self, x):\n"
                "        return _helper(x)\n\n\n"
                "def chain(s: Space, x):\n    if x:\n        raise Bad\n"
                "    return _helper(x)\n\n\n"
                "def direct(x):\n    raise Bad\n"),
        "sweep": ("from .lin import Space as S\n"
                  "from .errors import Bad\n\n\n"
                  "def sweep(x):\n    if x:\n        raise Bad\n"
                  "    return S().add(x)\n"),
    }
    kernels = (("sweep", "sweep"), ("lin", "chain"), ("lin", "direct"))
    assert shared(sources, kernels) == [("sweep", "chain", ["_helper"])]
