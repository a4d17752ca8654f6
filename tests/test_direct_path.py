"""The direct path of a flag pair (chain_path over the canonical chains)
against residual_rank at each dimension of the type and against the
profile sweep, the two checks the pair pass makes with it, and the pair
pass's counts against per-pair lists."""

import random
from collections import Counter
from collections.abc import Mapping
from itertools import combinations

import pytest

import flagcomb.flags as flags_module
from flagcomb import FlagCode, TypeVector, analyze, cli, flag_from_matrix
from flagcomb.errors import ConsistencyError
from flagcomb.flags import (min_distance, pair_distance_profile, pair_pass,
                            projected_table, random_full_flag,
                            random_full_flag_code)
from flagcomb.gfq_linalg import (Subspace, chain_levels, chain_path,
                                 residual_rank)
from flagcomb.support_paths import DistancePath, paths_of_code

from conftest import identity_rows


def _random_rows(q, n, rng, prefix=()):
    """n independent rows of F_q^n that start with *prefix*, drawn by
    rejection."""
    rows, space = list(prefix), Subspace(q, n, ())
    for row in rows:
        space = space.extend(row)
    while len(rows) < n:
        row = [rng.randrange(q) for _ in range(n)]
        grown = space.extend(row)
        if grown.dim > space.dim:
            rows.append(row)
            space = grown
    return rows


def _generator_pairs(q, n, rng):
    """Random, coordinate-permutation and shared-prefix generator pairs."""
    yield _random_rows(q, n, rng), _random_rows(q, n, rng)
    ident = identity_rows(n)
    yield ([ident[k] for k in rng.sample(range(n), n)],
           [ident[k] for k in rng.sample(range(n), n)])
    f = _random_rows(q, n, rng)
    yield f, _random_rows(q, n, rng, f[:rng.randint(1, n - 1)])


def _types(n, rng):
    yield TypeVector.full(n)
    yield TypeVector(n, tuple(sorted(rng.sample(range(1, n),
                                                rng.randint(1, n - 1)))))


def _assert_one_path(f, g):
    dims = f.type.dims
    path = chain_path(f.q, f.n, dims, chain_levels(f.subspaces),
                      chain_levels(g.subspaces))
    assert path == tuple(residual_rank(u, v)
                         for u, v in zip(f.subspaces, g.subspaces))
    assert path == pair_distance_profile(f, g)
    return path


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_direct_path_equals_residual_rank_and_the_sweep(q):
    """Per dimension of the type, the direct path equals residual_rank on
    F_t and G_t and the sweep's profile, at n = 2..16, on full types and
    general ones, for random, coordinate-permutation and shared-prefix
    pairs.  Some pairs reach full rank before t_last, and some never."""
    rng = random.Random(2500 + q)
    full_early = never_full = 0
    for n in range(2, 17):
        for tv in _types(n, rng):
            for rows_f, rows_g in _generator_pairs(q, n, rng):
                f, g = (flag_from_matrix(q, n, tv, rows)
                        for rows in (rows_f, rows_g))
                path = _assert_one_path(f, g)
                full_early += any(d == n - t for d, t
                                  in zip(path[:-1], tv.dims))
                never_full += path[-1] < n - tv.dims[-1]
    assert full_early and never_full


@pytest.mark.parametrize("q", [2, 3])
def test_direct_path_at_n_48(q):
    rng = random.Random(48 + q)
    tv = TypeVector(48, tuple(sorted(rng.sample(range(1, 48), 20))))
    for rows_f, rows_g in _generator_pairs(q, 48, rng):
        for type_ in (TypeVector.full(48), tv):
            _assert_one_path(*(flag_from_matrix(q, 48, type_, rows)
                               for rows in (rows_f, rows_g)))


# ---------------------------------------------------------------------------
# The two checks of projected_table
# ---------------------------------------------------------------------------

def _altered(path, j, value):
    return path[:j] + (value,) + path[j + 1:]


def _sweep_altered_at(monkeypatch, pair, j, value):
    """Make the sweep's profile of the flag pair *pair* read value(δ) in
    place of δ at index j; every other pair keeps its profile."""
    original = flags_module.pair_distance_profile

    def altered(f, g):
        profile = original(f, g)
        return (_altered(profile, j, value(profile[j])) if (f, g) == pair
                else profile)

    monkeypatch.setattr(flags_module, "pair_distance_profile", altered)


def test_a_sweep_profile_altered_at_one_pair_is_caught_by_analyze(
        monkeypatch):
    code = random_full_flag_code(3, 7, 5, random.Random(3))
    _sweep_altered_at(monkeypatch, code.flags[1:3], 2, lambda d: d + 1)
    with pytest.raises(ConsistencyError, match="flags 1 and 2: direct path"):
        analyze(code)


def test_a_sweep_profile_altered_at_one_pair_fails_the_cli(
        monkeypatch, tmp_path, type_135_text, capsys):
    """In the general-type branch: exit 3 with a consistency failure."""
    path = tmp_path / "code.txt"
    path.write_text(type_135_text)
    original, calls = flags_module.pair_distance_profile, []

    def altered(f, g):
        calls.append(None)
        profile = original(f, g)
        return _altered(profile, 1, profile[1] - 1) if len(calls) == 2 \
            else profile

    monkeypatch.setattr(flags_module, "pair_distance_profile", altered)
    assert cli.main(["analyze", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("consistency failure: flags 0 and 2: direct path")


@pytest.mark.parametrize("sweep_too", [False, True])
def test_a_direct_zero_between_distinct_subspaces_is_caught(monkeypatch,
                                                            sweep_too):
    """δ_i forced to 0 for one pair whose F_i differ, at q = 2 on a full
    code and at q = 5 on a general type.  With the sweep forced the same
    way, only the count of equal subspaces can catch it."""
    rng = random.Random(9)
    codes = [random_full_flag_code(2, 6, 4, rng),
             FlagCode(flag_from_matrix(5, 6, TypeVector(6, (2, 3, 5)),
                                       random_full_flag(5, 6, rng).generator)
                      for _ in range(4))]
    original = flags_module.chain_path

    def forced(q, n, dims, f_levels, g_levels):
        path = original(q, n, dims, f_levels, g_levels)
        return _altered(path, 1, 0) if (f_levels, g_levels) == target \
            else path

    monkeypatch.setattr(flags_module, "chain_path", forced)
    for code in codes:
        a, b = code.flags[:2]
        assert a.subspaces[1] != b.subspaces[1]
        target = (chain_levels(a.subspaces), chain_levels(b.subspaces))
        if sweep_too:
            _sweep_altered_at(monkeypatch, (a, b), 1, lambda d: 0)
        shared = sum(f.subspaces[1] == g.subspaces[1]
                      for f, g in combinations(code.flags, 2))
        with pytest.raises(ConsistencyError, match=(
                f"^dimension {code.type.dims[1]}: {shared + 1} pairs at "
                f"d_I = 0, {shared} share it$")):
            analyze(code) if code.is_full else projected_table(code)


def test_min_distance_on_a_general_type_runs_the_path_check(monkeypatch,
                                                            type_135_code):
    """d_f of a general-type code is read off the checked pair pass, so a
    direct path altered at one pair fails min_distance too."""
    a, b = type_135_code.flags[:2]
    target = (chain_levels(a.subspaces), chain_levels(b.subspaces))
    original = flags_module.chain_path

    def altered(q, n, dims, f_levels, g_levels):
        path = original(q, n, dims, f_levels, g_levels)
        assert path[0]      # no zero made or lost: the path check fires
        return (_altered(path, 0, path[0] + 1)
                if (f_levels, g_levels) == target else path)

    monkeypatch.setattr(flags_module, "chain_path", altered)
    with pytest.raises(ConsistencyError, match=(
            r"^flags 0 and 1: direct path \(2, 3, 1\), "
            r"sweep profile \(1, 3, 1\)$")):
        min_distance(type_135_code)


# ---------------------------------------------------------------------------
# The pair pass against per-pair lists
# ---------------------------------------------------------------------------

def _per_pair_reference(code):
    """The projected table, d_f, Γ(C) as a list of paths in first-seen pair
    order, and the count of pairs by path, from one list of sweep profiles
    and one list of direct paths per pair, the direct paths transposed by
    dimension."""
    flags, dims = code.flags, code.type.dims
    pairs = list(combinations(flags, 2))
    profiles = [pair_distance_profile(f, g) for f, g in pairs]
    paths = [chain_path(code.q, code.n, dims, chain_levels(f.subspaces),
                        chain_levels(g.subspaces)) for f, g in pairs]
    assert paths == profiles
    table = tuple((len({fl.subspaces[j] for fl in flags}),
                   min([d for d in deltas if d], default=0))
                  for j, deltas in enumerate(zip(*paths) if paths
                                             else [()] * len(dims)))
    return (table, min(map(sum, profiles), default=0),
            list(dict.fromkeys(profiles)), Counter(paths))


def _codes(q, rng):
    """Random full codes, full codes whose flags share prefixes of one
    generator, general-type codes and a singleton, at n = 3..8."""
    for n in range(3, 9):
        size = rng.randint(2, 9)
        yield random_full_flag_code(q, n, size, rng)
        base, full = _random_rows(q, n, rng), TypeVector.full(n)
        yield FlagCode(flag_from_matrix(q, n, full, _random_rows(
            q, n, rng, base[:rng.randint(0, n - 1)])) for _ in range(size))
        tv = TypeVector(n, tuple(sorted(rng.sample(range(1, n),
                                                   rng.randint(1, n - 2)))))
        yield FlagCode(flag_from_matrix(q, n, tv, _random_rows(q, n, rng))
                       for _ in range(size))
    yield random_full_flag_code(q, 4, 1, rng)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_pair_pass_equals_the_per_pair_lists(q):
    """The kept table, d_f and Γ(C) equal the per-pair reference on
    random, shared-prefix and general-type codes; the kept counts are the
    reference's, in its first-seen order, and shared subspaces occur."""
    shared = 0
    for code in _codes(q, random.Random(3200 + q)):
        table, d_f, gamma, counts = _per_pair_reference(code)
        kept = pair_pass(code)[0]
        assert projected_table(code) == table
        assert min_distance(code) == d_f
        assert list(kept) == gamma and dict(kept) == counts
        if code.is_full:
            assert paths_of_code(code) == frozenset(
                DistancePath(code.n, (0, *path, 0)) for path in gamma)
        shared += any(card < len(code) for card, _ in table)
    assert shared


def _sized(obj, seen):
    """The length of every container reachable from *obj*, through
    containers, __slots__ and instance dicts."""
    if id(obj) in seen or isinstance(obj, (str, bytes, int, type(None))):
        return
    seen.add(id(obj))
    if isinstance(obj, (tuple, list, set, frozenset, Mapping)):
        yield len(obj)
        items = ([*obj.keys(), *obj.values()] if isinstance(obj, Mapping)
                 else obj)
    else:
        slots = [s for k in type(obj).__mro__
                 for s in getattr(k, "__slots__", ())]
        items = [*getattr(obj, "__dict__", {}).values(),
                 *(getattr(obj, s) for s in slots if hasattr(obj, s))]
    for item in items:
        yield from _sized(item, seen)


def test_analyze_keeps_nothing_per_pair():
    """After analyze of 300 flags (44,850 pairs) the kept pair record has
    one entry per path of Γ(C), and nothing the code holds is sized by its
    pairs."""
    code = random_full_flag_code(2, 12, 300, random.Random(15))
    analyze(code)
    pairs = 300 * 299 // 2
    counts, table = code._pairs
    gamma = paths_of_code(code)
    assert len(counts) == len(gamma) < len(code)
    assert sum(counts.values()) == pairs and len(table) == 11
    assert max(_sized(code, set())) == len(code)
