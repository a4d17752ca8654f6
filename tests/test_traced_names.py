"""Every name the benchmark traces or calls by attribute still exists.

``perfbench/tracer.py`` rebinds each ``(module, attr)`` of its
``FUNCTIONS`` with a bare ``getattr``, so renaming or deleting one of them
makes ``perfbench/run.py --trace 1`` fail.  The table is read from the
source with ``ast``; nothing under ``perfbench/`` is imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_functions() -> dict[str, tuple[str, str]]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "FUNCTIONS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no FUNCTIONS table in {TRACER}")


# worker.py also calls splittings_of_codistance by attribute
NAMES = sorted(set(_traced_functions().values())
               | {("flagcomb.ferrers", "splittings_of_codistance")})


@pytest.mark.parametrize("module, attr", NAMES)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_rowspace_add_resolves():
    """Tracer.install wraps RowSpace.add outside the table."""
    from flagcomb.gfq_linalg import RowSpace
    assert callable(RowSpace.add)
