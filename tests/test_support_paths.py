import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcomb import (DistancePath, EmbeddedPartition, FlagCode,
                      StaircasePath, TypeVector, enumerate_paths,
                      flag_distance, flag_from_matrix, flags, max_distance,
                      path_codistance, path_distance, path_from_flag_pair,
                      paths_of_code, pick_area, plateau_count, range_r,
                      realize_path, support_paths, validate_path)
from flagcomb.errors import (EnumerationLimitExceeded, IndexOutOfRange,
                             InvalidPath, NotAPartition, NotFullFlag)
from flagcomb.flags import random_full_flag, random_full_flag_code
from flagcomb.counting import count_paths_by_distance
from flagcomb.support_paths import (_find_permutation, first_violation,
                                    iter_paths)

from conftest import reversed_flag, standard_flag


# ---------------------------------------------------------------------------
# Support and validation
# ---------------------------------------------------------------------------

def test_range_r():
    assert range_r(0, 7) == frozenset({0})
    assert range_r(3, 7) == frozenset({0, 1, 2, 3})
    assert range_r(5, 7) == frozenset({0, 1, 2})
    with pytest.raises(IndexOutOfRange):
        range_r(8, 7)


def test_support_positive_points_equals_max_distance():
    for n in range(2, 12):
        positive = sum(len(range_r(i, n)) - 1 for i in range(n + 1))
        assert positive == max_distance(n)


@pytest.mark.parametrize("deltas,ok", [
    ((0, 1, 2, 1, 1, 2, 1, 0), True),
    ((0, 0, 0, 0), True),
    ((0, 1, 1, 0), True),
    ((0, 1, 2, 3, 3, 2, 1, 0), True),   # maximum path for n=7
    ((0, 1, 2, 1, 0), True),
    ((1, 0, 0, 0), False),               # must start at 0
    ((0, 0, 0, 1), False),               # must end at 0
    ((0, 2, 1, 0), False),               # trident: jump of 2
    ((0, 1, 3, 1, 0), False),            # height above min(i, n-i)
    ((0, 1, -1, 1, 0), False),           # negative height
])
def test_validate_path(deltas, ok):
    n = len(deltas) - 1
    assert validate_path(deltas, n) is ok
    assert (first_violation(deltas, n) is None) is ok


def test_invalid_path_reports_index():
    with pytest.raises(InvalidPath) as exc:
        DistancePath(3, (0, 2, 1, 0))
    assert exc.value.index == 1


class _Int(int):
    """An int subclass, which the value types accept like int and bool."""


@pytest.mark.parametrize("cls, n, bad, good, error", [
    (DistancePath, 3, (0, 1.0, 1, 0), (0, True, _Int(1), 0), InvalidPath),
    (EmbeddedPartition, 4, (2.0, 1), (_Int(2), True), NotAPartition),
    (StaircasePath, 4, (2.5, 1, 0), (_Int(2), True, False), ValueError),
    (TypeVector, 5, (1.0, 3), (True, _Int(3)), ValueError),
], ids=["DistancePath", "EmbeddedPartition", "StaircasePath", "TypeVector"])
def test_value_types_reject_non_integer_entries(cls, n, bad, good, error):
    """An entry that is not an int is rejected with the type's own error,
    also when it equals a valid int; bools and int subclasses are kept."""
    with pytest.raises(error):
        cls(n, bad)
    assert cls(n, good) == cls(n, tuple(map(int, good)))


@pytest.mark.parametrize("cls, n, entries", [
    (DistancePath, 3, (0, True, _Int(1), 0)),
    (EmbeddedPartition, 4, (_Int(2), True)),
    (StaircasePath, 4, (_Int(2), True, False)),
    (TypeVector, 5, (True, _Int(3))),
], ids=["DistancePath", "EmbeddedPartition", "StaircasePath", "TypeVector"])
def test_value_types_store_plain_ints(cls, n, entries):
    """A bool or int-subclass entry is accepted and stored as a plain int,
    so the value prints 1 where it was given True."""
    value = cls(n, entries)
    stored = getattr(value, dataclasses.fields(cls)[1].name)
    assert stored == tuple(map(int, entries))
    assert all(type(x) is int for x in stored)
    assert f"={tuple(map(int, entries))})" in repr(value)
    assert "True" not in repr(value) and "False" not in repr(value)


@pytest.mark.parametrize("cls, n, entries, error", [
    (DistancePath, 3, (0, 1, 1, 0), InvalidPath),
    (EmbeddedPartition, 4, (2, 1), NotAPartition),
    (StaircasePath, 4, (2, 1, 0), ValueError),
    (TypeVector, 4, (1, 2, 3), ValueError),
], ids=["DistancePath", "EmbeddedPartition", "StaircasePath", "TypeVector"])
def test_value_types_reject_a_non_integer_n(cls, n, entries, error):
    """An n that is not an int is rejected with the type's own error, also
    when it equals a valid int (before: a bare TypeError, or accepted with
    a float frame size); an int subclass is kept."""
    for bad in (float(n), str(n), None):
        with pytest.raises(error):
            cls(bad, entries)
    assert cls(_Int(n), entries) == cls(n, entries)


def test_path_reversal_preserves_distance():
    p = DistancePath(7, (0, 1, 2, 1, 1, 2, 1, 0))
    r = p.reversed()
    assert r.deltas == (0, 1, 2, 1, 1, 2, 1, 0)[::-1]
    assert path_distance(r) == path_distance(p)
    assert pick_area(r) == pick_area(p)


# ---------------------------------------------------------------------------
# Distance, area, plateaus
# ---------------------------------------------------------------------------

def test_worked_path_example():
    p = DistancePath(7, (0, 1, 2, 1, 1, 2, 1, 0))
    assert path_distance(p) == 8
    assert pick_area(p) == 8
    assert path_codistance(p) == 4
    assert plateau_count(p) == (1, 1)


def test_zero_and_maximum_paths():
    n = 6
    zero = DistancePath(n, (0,) * (n + 1))
    assert path_distance(zero) == pick_area(zero) == 0
    assert path_codistance(zero) == max_distance(n)
    top = DistancePath(n, tuple(min(i, n - i) for i in range(n + 1)))
    assert path_distance(top) == max_distance(n)
    assert path_codistance(top) == 0


def test_plateau_parity_matches_n():
    for n in range(2, 9):
        for p in enumerate_paths(n):
            assert plateau_count(p)[0] % 2 == n % 2


def test_pick_area_equals_distance_everywhere():
    for n in range(2, 10):
        for p in enumerate_paths(n):
            assert pick_area(p) == path_distance(p) == sum(p.deltas)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _count_paths_dp(n):
    """Independent count of valid delta vectors by dynamic programming."""
    counts = {0: 1}
    for i in range(1, n + 1):
        cap = min(i, n - i)
        nxt = {}
        for h, c in counts.items():
            for h2 in (h - 1, h, h + 1):
                if 0 <= h2 <= cap:
                    nxt[h2] = nxt.get(h2, 0) + c
        counts = nxt
    return counts[0]


def test_enumeration_matches_dp_count():
    for n in range(2, 11):
        paths = enumerate_paths(n)
        assert len(paths) == _count_paths_dp(n)
        assert len(set(paths)) == len(paths)
        assert paths == sorted(paths, key=lambda p: p.deltas)


def test_enumeration_small_case_explicit():
    assert [p.deltas for p in enumerate_paths(3)] == [
        (0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 0)]


def test_distance_filter():
    for d in range(max_distance(6) + 1):
        sub = enumerate_paths(6, d)
        assert all(path_distance(p) == d for p in sub)
    assert sum(len(enumerate_paths(6, d))
               for d in range(max_distance(6) + 1)) == len(enumerate_paths(6))


def test_enumeration_cap():
    with pytest.raises(EnumerationLimitExceeded):
        enumerate_paths(15)
    with pytest.raises(EnumerationLimitExceeded):
        enumerate_paths(6, max_n=5)


@pytest.mark.parametrize("args, error, match", [
    ((5.0,), ValueError, "n"),
    ((5, "x"), ValueError, "distance_filter"),
    ((40,), EnumerationLimitExceeded, "cap 14"),
])
def test_iter_paths_checks_its_arguments_at_the_call(args, error, match):
    """The checks run when iter_paths is called, not at the first step of
    the generator it returns; 14 is the default cap."""
    with pytest.raises(error, match=match):
        iter_paths(*args)


def _recursive_paths(n, distance_filter=None):
    """The reference enumerator: a recursive closure over one delta list,
    every path built by the validating constructor."""
    out = []
    deltas = [0] * (n + 1)

    def extend(i, acc):
        if i == n:
            if deltas[n - 1] <= 1 and (distance_filter is None
                                       or acc == distance_filter):
                out.append(DistancePath(n, tuple(deltas)))
            return
        lo = max(0, deltas[i - 1] - 1)
        hi = min(deltas[i - 1] + 1, i, n - i)
        for d in range(lo, hi + 1):
            deltas[i] = d
            extend(i + 1, acc + d)
        deltas[i] = 0

    extend(1, 0)
    return out


@pytest.mark.parametrize("n", range(2, 10))
def test_stack_enumerator_matches_recursive_reference(n):
    for d in [None, *range(-1, max_distance(n) + 2)]:
        reference = _recursive_paths(n, d)
        got = enumerate_paths(n, d, max_n=n)
        assert got == reference
        assert all(type(p) is DistancePath and hash(p) == hash(q)
                   for p, q in zip(got, reference))
        assert [(p, path_distance(p)) for p in reference] == list(
            iter_paths(n, d, max_n=n))


@pytest.mark.parametrize("n", range(2, 13))
def test_count_paths_by_distance_matches_enumeration(n):
    by_d = [0] * (max_distance(n) + 1)
    for p in enumerate_paths(n, max_n=n):
        by_d[path_distance(p)] += 1
    assert count_paths_by_distance(n) == by_d
    assert sum(by_d) == _count_paths_dp(n)      # Motzkin(n)


# ---------------------------------------------------------------------------
# Paths from flags, realization
# ---------------------------------------------------------------------------

def test_path_from_extremal_pair():
    f, g = standard_flag(2, 4), reversed_flag(2, 4)
    p = path_from_flag_pair(f, g)
    assert p.deltas == (0, 1, 2, 1, 0)
    assert path_distance(p) == flag_distance(f, g) == 4


def test_path_from_flag_pair_requires_full(type_135_code):
    a, b = type_135_code.flags[:2]
    with pytest.raises(NotFullFlag):
        path_from_flag_pair(a, b)


def test_random_pairs_give_valid_paths(rng):
    for _ in range(200):
        n = rng.randint(2, 7)
        q = rng.choice([2, 3])
        f = random_full_flag(q, n, rng)
        g = random_full_flag(q, n, rng)
        p = path_from_flag_pair(f, g)
        assert validate_path(p.deltas, n)
        assert path_distance(p) == flag_distance(f, g)


def test_realize_simple_path():
    p = DistancePath(3, (0, 1, 1, 0))
    f, g = realize_path(p, 2)
    assert path_from_flag_pair(f, g) == p
    # lexicographic-first realization: g permutes the standard basis
    assert g.generator == ((0, 1, 0), (0, 0, 1), (1, 0, 0))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_realize_roundtrip_all_paths_n5(q):
    for p in enumerate_paths(5):
        f, g = realize_path(p, q)
        assert path_from_flag_pair(f, g) == p


def _search_permutation(deltas, n):
    """The backtracking search that realize_path once used: the reference
    for the lex-first permutation."""
    targets = [i - deltas[i] for i in range(n + 1)]
    w = []
    used = [False] * (n + 1)

    def feasible(i):
        for k in range(i, n + 1):
            cnt = sum(1 for v in w if v <= k)
            if cnt > targets[k] or targets[k] - cnt > k - i:
                return False
        return True

    def place(i):
        if i > n:
            return True
        for v in range(1, n + 1):
            if used[v]:
                continue
            w.append(v)
            used[v] = True
            cnt = sum(1 for x in w if x <= i)
            if cnt == targets[i] and feasible(i) and place(i + 1):
                return True
            w.pop()
            used[v] = False
        return False

    return w if place(1) else None


def _random_path(n, rng):
    """A uniform step at each dimension among those that stay on S(n)."""
    deltas = [0]
    for i in range(1, n + 1):
        d = deltas[-1]
        deltas.append(rng.randint(max(0, d - 1), min(d + 1, i, n - i)))
    return DistancePath(n, tuple(deltas))


def test_find_permutation_matches_search_exhaustive():
    for n in range(2, 11):
        for p in enumerate_paths(n):
            assert _find_permutation(p.deltas, n) == \
                _search_permutation(p.deltas, n), p.deltas


def test_find_permutation_matches_search_random():
    rng = random.Random(20)
    for _ in range(150):
        p = _random_path(rng.randint(12, 20), rng)
        assert _find_permutation(p.deltas, p.n) == \
            _search_permutation(p.deltas, p.n), p.deltas


@pytest.mark.parametrize("n", [30, 60, 100])
def test_find_permutation_rank_profile(n):
    rng = random.Random(n)
    for _ in range(20):
        p = _random_path(n, rng)
        w = _find_permutation(p.deltas, n)
        assert sorted(w) == list(range(1, n + 1))
        for i in range(n + 1):
            assert sum(1 for v in w[:i] if v <= i) == i - p.deltas[i]


def test_realize_deep_path_n24():
    p = DistancePath(24, (0, 1, 2, 3, 4, 5, 6, 5, 5, 6, 5, 6, 7, 7, 8, 7, 7,
                          6, 6, 5, 4, 3, 2, 1, 0))
    f, g = realize_path(p, 2)
    assert path_from_flag_pair(f, g) == p


def test_paths_of_code(rng):
    f, g = standard_flag(2, 4), reversed_flag(2, 4)
    c = FlagCode([f, g])
    assert paths_of_code(c) == frozenset({DistancePath(4, (0, 1, 2, 1, 0))})
    c2 = FlagCode([random_full_flag(2, 5, rng) for _ in range(4)])
    assert all(p.n == 5 for p in paths_of_code(c2))


def test_paths_of_code_equals_the_paths_of_every_pair():
    """Γ(C) is built from the distinct profiles only, and equals the set
    of the paths of all pairs, each computed on its own."""
    c = random_full_flag_code(2, 8, 20, random.Random(19))
    every = [path_from_flag_pair(f, g)
             for f, g in itertools.combinations(c.flags, 2)]
    assert len(set(every)) < len(every) == 190
    assert paths_of_code(c) == frozenset(every)


def test_paths_of_code_validates_each_distinct_profile_once(monkeypatch):
    """A repeated profile is validated once, and an invalid one after it
    still raises InvalidPath.  Both pair kernels read the planted paths in
    pair order, so the pair pass's checks agree with them; no two of the
    three flags share a subspace, and no planted path has a zero."""
    skew = flag_from_matrix(2, 4, TypeVector.full(4), [
        [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    c = FlagCode([standard_flag(2, 4), reversed_flag(2, 4), skew])
    checked = []

    def counting(deltas, n):
        checked.append(deltas)
        return first_violation(deltas, n)

    monkeypatch.setattr(support_paths, "first_violation", counting)
    for kernel in ("chain_path", "pair_distance_profile"):
        planted = iter([(1, 2, 1), (1, 2, 1), (3, 2, 1)])
        monkeypatch.setattr(flags, kernel,
                            lambda *_args, planted=planted: next(planted))
    with pytest.raises(InvalidPath, match="delta_1=3"):
        paths_of_code(c)
    assert checked == [(0, 1, 2, 1, 0), (0, 3, 2, 1, 0)]


# ---------------------------------------------------------------------------
# Property: random walks validated against the constraint definition
# ---------------------------------------------------------------------------

@given(st.integers(2, 9), st.lists(st.integers(-1, 1), min_size=2, max_size=9),
       st.randoms(use_true_random=False))
@settings(max_examples=300)
def test_validator_agrees_with_definition(n, steps, rnd):
    deltas = [0]
    for s in steps[:n]:
        deltas.append(deltas[-1] + s)
    deltas += [0] * (n + 1 - len(deltas))
    deltas = deltas[:n + 1]
    expected = (
        deltas[0] == 0 and deltas[-1] == 0
        and all(0 <= d <= min(i, n - i) for i, d in enumerate(deltas))
        and all(abs(a - b) <= 1 for a, b in zip(deltas, deltas[1:])))
    assert validate_path(deltas, n) == expected
