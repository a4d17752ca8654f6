"""Every int parameter of the public API is checked by errors.check_int.

Two halves:

- a signature walk calls each export of flagcomb, plus random_full_flag,
  TypeVector.full and run_verification, with a bad value in each parameter
  that names an int (q, n, i, ...), and asks for a FlagcombError or a
  ValueError whose message names that parameter and shows the value's
  repr: never a bare TypeError, and never a result;
- an ast lint, in the style of test_layering.py, keeps the rule in one
  module: outside errors.py no function tests one of its own parameters
  with isinstance(p, int), type(p) is int or a chained lo <= p <= hi.
  Per-element checks (a delta, a part, a profile row, a type dim) test a
  loop variable, not a parameter, and stay inline.
"""

import ast
import inspect
import random
import re
from pathlib import Path

import pytest

import flagcomb
from flagcomb import (DistancePath, EmbeddedPartition, TypeVector,
                      flag_from_matrix, random_full_flag_code)
from flagcomb.counting import max_distance
from flagcomb.errors import FlagcombError, check_int
from flagcomb.flags import random_full_flag
from flagcomb.verify import run_verification

SRC = Path(__file__).resolve().parent.parent / "src" / "flagcomb"

# ---------------------------------------------------------------------------
# The signature walk
# ---------------------------------------------------------------------------

INT_NAMES = {"q", "n", "i", "j", "k", "a", "b", "u", "d_i", "dbar", "size",
             "ambient_n", "distance_filter", "splitting_filter", "max_n",
             "n_max", "trials"}
BAD = (5.0, "5", None)

CALLABLES = {name: getattr(flagcomb, name) for name in flagcomb.__all__}
CALLABLES.update(random_full_flag=random_full_flag,
                 run_verification=run_verification,
                 **{"TypeVector.full": TypeVector.full})

# (callable, parameter) -> why a bad value there is not refused.  Besides
# these, a None is skipped where it is the parameter's default: it means no
# filter (distance_filter, splitting_filter), the configured cap (max_n), or
# no d_i for unequal cardinalities.
EXEMPT = {
    **dict.fromkeys(
        [("CodeAnalysis", "q"), ("CodeAnalysis", "n"),
         ("CodeAnalysis", "size")],
        "the report record analyze fills from a checked code"),
    ("DurfeeRectangle", "k"): "the record durfee_rectangle returns, after "
                              "it checked k",
    ("UnderlyingDistribution", "n"): "a record of the black cells per row, "
                                     "built from a checked partition",
    **dict.fromkeys(
        [("Flag", "q"), ("Flag", "n")],
        "built by flag_from_matrix and random_full_flag, which check q and "
        "n; the constructor takes its input as checked, once per flag on "
        "the analyze path"),
    **dict.fromkeys(
        [("distance_equivalent", "a"), ("distance_equivalent", "b")],
        "a and b are partitions, not ints"),
    **dict.fromkeys(
        [(name, "u") for name in ("dim_intersection", "dim_sum",
                                  "injection_distance", "subspace_distance")],
        "u is a subspace, not an int"),
    ("validate_path", "n"): "a predicate: a non-int n makes it False, as "
                            "first_violation reports it",
}


def _fixtures():
    """A call that works for each walked callable; where a bound allows,
    5 is in range, so that a 5.0 is refused as a non-int."""
    code = random_full_flag_code(2, 4, 3, random.Random(0))
    identity = [[int(r == c) for c in range(3)] for r in range(3)]
    return {
        "max_distance": dict(n=4),
        "black_dots_in_rectangle": dict(a=1, b=2, n=5),
        "check_separability": dict(dbar=0, n=5, i=1),
        "durfee_rectangle": dict(p=EmbeddedPartition(6, (3, 1)), k=0),
        "flag_distance_bounds": dict(n=5, i=2, cardinality_equal=True,
                                     d_i=1),
        "rectangle_to_projected": dict(c=code, i=1),
        "EmbeddedPartition": dict(n=4, parts=(2, 1)),
        "StaircasePath": dict(n=4, profile=(2, 1, 0)),
        "cell_color": dict(n=4, i=1, j=1),
        "enumerate_embedded_partitions": dict(n=4, splitting_filter=1,
                                              max_n=5),
        "is_embedded": dict(parts=(2, 1), n=4),
        "splittings_of_codistance": dict(n=5, u=1),
        "TypeVector": dict(n=4, dims=(1, 3)),
        "TypeVector.full": dict(n=4),
        "flag_from_matrix": dict(q=2, n=3, type_=TypeVector.full(3),
                                 rows=identity),
        "projected_code": dict(c=code, i=1),
        "projected_distance": dict(c=code, i=1),
        "projected_parameters": dict(c=code, i=1),
        "projection": dict(f=code.flags[0], i=1),
        "random_full_flag_code": dict(q=2, n=3, size=2,
                                      rng=random.Random(0)),
        "random_full_flag": dict(q=2, n=3, rng=random.Random(0)),
        "Subspace": dict(q=2, ambient_n=3, basis=((0, 1, 0),)),
        "grassmannian": dict(q=2, n=6, k=1),
        "subspace_from_rows": dict(q=2, n=3, rows=[[1, 0, 1]]),
        "DistancePath": dict(n=3, deltas=(0, 1, 1, 0)),
        "enumerate_paths": dict(n=4, distance_filter=2, max_n=5),
        "range_r": dict(i=1, n=4),
        "realize_path": dict(p=DistancePath(3, (0, 1, 1, 0)), q=2),
        "run_verification": dict(n_max=2, qs=(2,), trials=0),
    }


def _cases():
    """(callable name, parameter, bad value) for every int-named parameter
    of every walked callable that is not exempt."""
    for name, call in CALLABLES.items():
        for param in inspect.signature(call).parameters.values():
            if param.name not in INT_NAMES or (name, param.name) in EXEMPT:
                continue
            for bad in BAD:
                if bad is None and param.default is None:
                    continue
                yield name, param.name, bad


def _call(name, kwargs):
    """Call *name*; a generator runs its checks on its first step, so the
    walk takes one."""
    out = CALLABLES[name](**kwargs)
    if inspect.isgenerator(out):
        next(out)


@pytest.fixture(scope="module")
def base():
    return _fixtures()


@pytest.mark.parametrize("name, param, bad", list(_cases()))
def test_a_bad_int_parameter_is_refused_by_name(base, name, param, bad):
    kwargs = dict(base[name], **{param: bad})
    with pytest.raises((FlagcombError, ValueError)) as exc:
        _call(name, kwargs)
    message = str(exc.value)
    assert re.search(rf"(?<!\w){re.escape(param)}(?!\w)", message), message
    assert repr(bad) in message


def test_every_base_call_succeeds(base):
    """The walk's bad values are refused against calls that work."""
    names = {name for name, _, _ in _cases()}
    assert names == set(base)
    for name in sorted(names):
        _call(name, dict(base[name]))


def test_every_exemption_names_a_walked_parameter():
    """An exemption whose callable or parameter is gone is stale and goes."""
    for name, param in EXEMPT:
        assert param in inspect.signature(CALLABLES[name]).parameters


@pytest.mark.parametrize("bad", [5.0, "5", None, 1, 0, -3])
def test_max_distance_says_what_the_checker_says(bad):
    """counting keeps its own copy of the n check (it imports no flagcomb
    module), so its text must stay the checker's."""
    with pytest.raises(ValueError) as ours:
        max_distance(bad)
    with pytest.raises(ValueError) as checker:
        check_int("n", bad, 2)
    assert str(ours.value) == str(checker.value)


def test_flag_from_matrix_names_n_for_an_equal_float():
    """3.0 == 3, so a float n used to pass the type vector's n and build a
    Flag with n = 3.0."""
    with pytest.raises(ValueError, match="n must be an int, got 3.0"):
        flag_from_matrix(2, 3.0, TypeVector.full(3),
                         [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


# ---------------------------------------------------------------------------
# The lint: no hand-written int or range check of a parameter outside errors
# ---------------------------------------------------------------------------

# module.function -> why its check stays hand-written
ALLOWED = {
    "support_paths.first_violation":
        "a predicate: it returns the violation instead of raising",
    "codefile._integer":
        "the JSON rule: type(v) is int, since JSON true and 1.0 are no "
        "integers (config.load_config keeps it too, on a value it reads "
        "from the file, which is no parameter)",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_param(node: ast.AST, params: set[str]) -> bool:
    """A parameter, or an attribute of one such as self.n."""
    if isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in params


def _is_int(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "int"


def _is_check(node: ast.AST, params: set[str]) -> bool:
    if isinstance(node, ast.Call):      # isinstance(p, int)
        return (isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and _is_param(node.args[0], params) and _is_int(node.args[1]))
    if not isinstance(node, ast.Compare):
        return False
    if len(node.ops) == 2:              # lo <= p <= hi
        return _is_param(node.comparators[0], params)
    left = node.left                    # type(p) is int, type(p) is not int
    return (isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and _is_int(node.comparators[0]) and isinstance(left, ast.Call)
            and isinstance(left.func, ast.Name) and left.func.id == "type"
            and len(left.args) == 1 and _is_param(left.args[0], params))


def hand_checks(source: str) -> list[tuple[str, str]]:
    """(qualified function name, the check) for each test of a function's
    own parameter in *source*; a nested function is its own scope."""
    found = []

    def visit(node, qualname, params):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*FUNCTIONS, ast.ClassDef)):
                name = f"{qualname}.{child.name}" if qualname else child.name
                args = getattr(child, "args", None)
                visit(child, name, set() if args is None else {
                    a.arg for a in args.posonlyargs + args.args
                    + args.kwonlyargs})
                continue
            if _is_check(child, params):
                found.append((qualname, ast.unparse(child)))
            visit(child, qualname, params)

    visit(ast.parse(source), "", set())
    return found


def _src_checks() -> list[tuple[str, str]]:
    """('module.function', check) for every hand check in src/flagcomb
    outside errors.py."""
    return [(f"{path.stem}.{func}", check)
            for path in sorted(SRC.glob("*.py")) if path.stem != "errors"
            for func, check in hand_checks(path.read_text())]


def test_no_hand_written_int_check_outside_errors():
    assert [c for c in _src_checks() if c[0] not in ALLOWED] == []


def test_every_allowed_function_still_checks_by_hand():
    """An entry whose function was deleted, or that now calls check_int,
    is stale and goes."""
    assert set(ALLOWED) <= {name for name, _ in _src_checks()}


def test_lint_finds_planted_checks():
    source = (
        "def f(n, i, spec, parts):\n"
        "    if not isinstance(n, int):\n        pass\n"
        "    if type(i) is not int or type(i) is int:\n        pass\n"
        "    if not 0 <= spec.n <= 5:\n        pass\n"
        "    for d in parts:\n"
        "        if not isinstance(d, int) or not 0 <= d <= n:\n"
        "            pass\n"
        "    k = n - 1\n"
        "    if not 0 <= k <= n or n < 2 or isinstance(n, float):\n"
        "        pass\n\n"
        "    def g(k):\n        return 1 <= k <= 2 or 1 <= i <= 2\n"
        "    return g\n\n\n"
        "class C:\n"
        "    def __post_init__(self):\n"
        "        if not isinstance(self.n, int):\n            pass\n")
    assert hand_checks(source) == [
        ("f", "isinstance(n, int)"),
        ("f", "type(i) is not int"),
        ("f", "type(i) is int"),
        ("f", "0 <= spec.n <= 5"),
        ("f.g", "1 <= k <= 2"),
        ("C.__post_init__", "isinstance(self.n, int)"),
    ]
