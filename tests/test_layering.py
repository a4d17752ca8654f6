"""Each CLI command loads only the modules it runs.

A static lint, written on the standard library's ast in the style of
test_imports.py, keeps three rules of the layering:

- ``counting`` imports no flagcomb module, anywhere;
- ``cli`` imports only ``config``, ``errors`` and ``counting`` at module
  level (each command imports what else it runs in its own body);
- the package ``__init__`` imports no submodule at module level (its
  exports load on first access, through PEP 562's ``__getattr__``).

Module level is everything outside a function body.  The guard tests run
the CLI in a fresh interpreter and read ``sys.modules``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagcomb

SRC = Path(__file__).resolve().parent.parent / "src" / "flagcomb"

CLI_MODULE_LEVEL = {"config", "errors", "counting"}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def flagcomb_imports(source: str, module_level: bool) -> list[str]:
    """The flagcomb submodules *source* imports, in order; with
    module_level, only the imports outside function bodies."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if module_level and isinstance(child, FUNCTIONS):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name.split(".")[1]
                             for alias in child.names
                             if alias.name.startswith("flagcomb."))
            elif isinstance(child, ast.ImportFrom):
                module = child.module or ""
                if child.level:
                    module = f"flagcomb.{module}".rstrip(".")
                if module == "flagcomb":
                    found.extend(alias.name for alias in child.names)
                elif module.startswith("flagcomb."):
                    found.append(module.split(".")[1])
            visit(child)

    visit(ast.parse(source))
    return found


def violations(sources: dict[str, str]) -> list[str]:
    """One line per import that breaks a rule, in *sources* (module name
    -> source)."""
    out = [f"counting imports {m}"
           for m in flagcomb_imports(sources["counting"], False)]
    out += [f"cli imports {m} at module level"
            for m in flagcomb_imports(sources["cli"], True)
            if m not in CLI_MODULE_LEVEL]
    out += [f"__init__ imports {m} at module level"
            for m in flagcomb_imports(sources["__init__"], True)]
    return out


def test_the_layering_holds():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert violations(sources) == []


def test_checker_finds_planted_violations():
    sources = {
        "counting": ("def f():\n    from . import flags\n"
                     "    return flags\n"),
        "cli": ("from . import config, render\nfrom .errors import E\n"
                "import flagcomb.verify\n\n\n"
                "def cmd():\n    from .flags import Flag\n    return Flag\n\n\n"
                "class C:\n    from .ferrers import BLACK\n"),
        "__init__": ("from importlib import import_module\n"
                     "if True:\n    from flagcomb import codefile\n\n\n"
                     "def __getattr__(name):\n"
                     "    return import_module('.flags', __name__)\n"),
    }
    assert violations(sources) == [
        "counting imports flags",
        "cli imports render at module level",
        "cli imports verify at module level",
        "cli imports ferrers at module level",
        "__init__ imports codefile at module level",
    ]


# ---------------------------------------------------------------------------
# Guards: what a fresh interpreter has loaded
# ---------------------------------------------------------------------------

CODE = "2 4 full\n\n1 0 0 0\n0 1 0 0\n0 0 1 0\n\n0 0 0 1\n0 0 1 0\n0 1 0 0\n"


def _loaded_after(script: str) -> dict:
    """Run *script* in a fresh interpreter with src/ on the path; it ends
    with a dict ``out``, returned here with the flagcomb modules loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    script += ("\nimport json, sys\nout['loaded'] = sorted(m for m in "
               "sys.modules if m.split('.')[0] == 'flagcomb')\n"
               "print(json.dumps(out))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_counting_commands_load_only_the_counting_dps():
    out = _loaded_after(
        "import contextlib, io\nimport flagcomb.cli\nout = {'rc': []}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['paths', '9'], ['partitions', '9', '-u', '3'],\n"
        "                 ['bijection', '9']):\n"
        "        out['rc'].append(flagcomb.cli.main(argv))\n")
    assert out["rc"] == [0, 0, 0]
    assert out["loaded"] == ["flagcomb", "flagcomb.cli", "flagcomb.config",
                             "flagcomb.counting", "flagcomb.errors"]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """config.Config is a NamedTuple, so no command pays for dataclasses
    and, through it, inspect, ast, dis and tokenize."""
    out = _loaded_after("import sys\nimport flagcomb.cli\nout = {'std': [\n"
                        "    m for m in ('dataclasses', 'inspect')\n"
                        "    if m in sys.modules]}\n")
    assert out["std"] == []
    assert "flagcomb.config" in out["loaded"]


def test_analyze_loads_neither_render_nor_verify(tmp_path):
    code = tmp_path / "code.txt"
    code.write_text(CODE)
    out = _loaded_after(
        "import contextlib, io\nimport flagcomb.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as text:\n"
        f"    rc = flagcomb.cli.main(['analyze', {str(code)!r}])\n"
        "out = {'rc': rc, 'last': text.getvalue().splitlines()[-1]}\n")
    assert (out["rc"], out["last"]) == (0, "all cross-checks passed")
    assert "flagcomb.durfee_analysis" in out["loaded"]
    assert not {"flagcomb.render", "flagcomb.verify"} & set(out["loaded"])


def test_exports_load_on_first_access():
    out = _loaded_after(
        "import flagcomb\nout = {'before': sorted(set(flagcomb.__all__)\n"
        "                                         - set(dir(flagcomb)))}\n"
        "ns = {}\nexec('from flagcomb import *', ns)\n"
        "out['unbound'] = sorted(set(flagcomb.__all__) - set(ns))\n"
        "import flagcomb.durfee_analysis as da\n"
        "out['same'] = flagcomb.analyze is da.analyze\n")
    assert (out["before"], out["unbound"], out["same"]) == ([], [], True)
    assert "flagcomb.render" not in out["loaded"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'flagcomb' has no "
                                             "attribute 'no_such_name'$"):
        flagcomb.no_such_name
