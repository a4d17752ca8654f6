import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagcomb.flags as flags_module
from flagcomb import (FlagCode, TypeVector, codistance, flag_distance,
                      flag_from_matrix, injection_distance, max_distance,
                      min_distance, projected_code, projected_distance,
                      projection)
from flagcomb.durfee_analysis import analyze
from flagcomb.errors import (ConsistencyError, IndexOutOfRange, NotFullFlag,
                             RankDeficient, TypeMismatch)
from flagcomb.flags import (_profile_gf2, _profile_gf3, _profile_rows,
                            pair_distance_profile, random_full_flag,
                            random_full_flag_code, random_invertible_matrix)
from flagcomb.gfq_linalg import RowSpace

from conftest import reversed_flag, standard_flag


# ---------------------------------------------------------------------------
# Types and construction
# ---------------------------------------------------------------------------

def test_type_vector_validation():
    assert TypeVector.full(4).dims == (1, 2, 3)
    assert TypeVector.full(4).is_full
    assert not TypeVector(6, (1, 3, 5)).is_full
    for bad in [(0, 1), (2, 2), (3, 1), (1, 6)]:
        with pytest.raises(ValueError):
            TypeVector(6, bad)


def test_full_flag_construction_and_projection():
    f = standard_flag(2, 4)
    assert f.is_full
    for i in range(1, 4):
        assert projection(f, i).dim == i
    with pytest.raises(IndexOutOfRange):
        projection(f, 4)


def test_rank_deficient_prefix_reported():
    rows = [[1, 0, 0], [1, 0, 0], [0, 1, 0]]
    with pytest.raises(RankDeficient) as exc:
        flag_from_matrix(2, 3, TypeVector.full(3), rows)
    assert exc.value.prefix == 2


def test_singular_full_generator_rejected():
    rows = [[1, 0, 0], [0, 1, 0], [1, 1, 0]]
    with pytest.raises(RankDeficient):
        flag_from_matrix(2, 3, TypeVector.full(3), rows)


def test_flag_equality_by_subspaces_not_generators():
    a = flag_from_matrix(2, 3, TypeVector.full(3),
                         [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    b = flag_from_matrix(2, 3, TypeVector.full(3),
                         [[1, 0, 0], [1, 1, 0], [1, 1, 1]])
    assert a == b and hash(a) == hash(b)
    assert len(FlagCode([a, b])) == 1


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def test_max_distance_values():
    assert [max_distance(n) for n in range(2, 9)] == [1, 2, 4, 6, 9, 12, 16]
    with pytest.raises(ValueError):
        max_distance(1)


def test_standard_vs_reversed_is_extremal():
    """The identity flag and its reversal attain d_f = D^n."""
    for q, n in [(2, 3), (2, 4), (3, 5)]:
        f, g = standard_flag(q, n), reversed_flag(q, n)
        profile = pair_distance_profile(f, g)
        assert profile == tuple(min(i, n - i) for i in range(1, n))
        assert flag_distance(f, g) == max_distance(n)


def test_profile_matches_direct_subspace_distances(rng):
    for q, n in [(2, 4), (3, 5), (2, 6)]:
        f = random_full_flag(q, n, rng)
        g = random_full_flag(q, n, rng)
        direct = tuple(injection_distance(projection(f, i), projection(g, i))
                       for i in range(1, n))
        assert pair_distance_profile(f, g) == direct


def test_distance_symmetry_and_identity(rng):
    f = random_full_flag(2, 5, rng)
    g = random_full_flag(2, 5, rng)
    assert flag_distance(f, g) == flag_distance(g, f)
    assert flag_distance(f, f) == 0


def test_mixed_types_rejected():
    f = standard_flag(2, 4)
    g = flag_from_matrix(2, 4, TypeVector(4, (1, 3)),
                         [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(TypeMismatch):
        flag_distance(f, g)
    with pytest.raises(TypeMismatch):
        FlagCode([f, g])


# ---------------------------------------------------------------------------
# Codes, projected codes
# ---------------------------------------------------------------------------

def test_code_example_type_135(type_135_code):
    c = type_135_code
    assert len(c) == 3 and not c.is_full
    assert sorted(sum(p) for p in
                  (pair_distance_profile(a, b)
                   for a, b in itertools.combinations(c.flags, 2))) == [2, 5, 5]
    assert min_distance(c) == 2
    assert [len(projected_code(c, i)) for i in (1, 2, 3)] == [3, 2, 3]
    assert [projected_distance(c, i) for i in (1, 2, 3)] == [1, 3, 1]
    with pytest.raises(NotFullFlag):
        codistance(c)


def test_codistance_extremes():
    c = FlagCode([standard_flag(2, 4), reversed_flag(2, 4)])
    assert min_distance(c) == 4 and codistance(c) == 0


def test_singleton_code():
    c = FlagCode([standard_flag(2, 4)])
    assert min_distance(c) == 0
    assert codistance(c) == max_distance(4)
    assert len(projected_code(c, 2)) == 1
    assert projected_distance(c, 2) == 0


def test_projected_code_dedupes(rng):
    c = random_full_flag_code(2, 4, 6, rng)
    for i in range(1, 4):
        subs = projected_code(c, i)
        assert len(set(subs)) == len(subs) <= len(c)


def test_random_generators(rng):
    m = random_invertible_matrix(3, 5, rng)
    from flagcomb.gfq_linalg import rref
    assert rref(m)[1] == 5
    c = random_full_flag_code(2, 4, 5, rng)
    assert len(c) == 5 and c.is_full


@pytest.mark.parametrize("q, n, available", [(2, 2, 3), (2, 3, 21), (3, 2, 4)])
def test_random_code_size_is_bounded_by_the_full_flags(rng, q, n, available):
    """F_q^n has prod (q^i - 1)/(q - 1) full flags: asking for all of them
    returns them all, asking for one more raises instead of spinning."""
    c = random_full_flag_code(q, n, available, rng)
    assert len(set(c)) == available
    with pytest.raises(ValueError, match=f"has {available} full flags"):
        random_full_flag_code(q, n, available + 1, rng)


# ---------------------------------------------------------------------------
# Packed profile sweeps against the list kernel, and the kernels' independence
# ---------------------------------------------------------------------------

def _completion(q, n, prefix, rng):
    """An invertible generator whose first rows are *prefix*."""
    space = RowSpace(q, n)
    rows = [tuple(r) for r in prefix]
    for r in rows:
        assert space.add(r)
    while len(rows) < n:
        row = tuple(rng.randrange(q) for _ in range(n))
        if space.add(row):
            rows.append(row)
    return rows


@st.composite
def _flag_pairs(draw):
    """A pair of flags of one random type, from one of four families."""
    q = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(2, 12))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    dims = draw(st.lists(st.integers(1, n - 1), min_size=1, unique=True))
    kind = draw(st.sampled_from(("random", "permutation", "shared", "scaled")))
    f_rows = _completion(q, n, [], rng)
    if kind == "random":
        g_rows = _completion(q, n, [], rng)
    elif kind == "permutation":
        perms = [draw(st.permutations(range(n))) for _ in range(2)]
        f_rows, g_rows = ([tuple(int(c == p) for c in range(n)) for p in perm]
                          for perm in perms)
    elif kind == "shared":
        g_rows = _completion(q, n, f_rows[:draw(st.integers(0, n))], rng)
    else:  # rows scaled by q - 1; from f itself, g is the same flag as f
        source = f_rows if draw(st.booleans()) else _completion(q, n, [], rng)
        g_rows = [tuple((q - 1) * e % q for e in r) for r in source]
    tv = TypeVector(n, tuple(sorted(dims)))
    return (flag_from_matrix(q, n, tv, f_rows),
            flag_from_matrix(q, n, tv, g_rows))


@given(_flag_pairs())
@settings(max_examples=300, deadline=None)
def test_packed_sweep_equals_list_kernel(pair):
    f, g = pair
    packed = _profile_gf2 if f.q == 2 else _profile_gf3
    reference = _profile_rows(f, g)
    assert packed(f, g) == reference
    assert packed(g, f) == reference
    assert pair_distance_profile(f, g) == reference


def _raise(*_args):
    raise AssertionError("the direct side called a packed sweep")


@pytest.mark.parametrize("q", [2, 3])
def test_direct_side_never_calls_packed_sweep(monkeypatch, q):
    code = random_full_flag_code(q, 7, 5, random.Random(q))
    gens = [fl.generator for fl in code]
    expected = [(projected_code(code, i), projected_distance(code, i))
                for i in range(1, 7)]
    monkeypatch.setattr(flags_module, "_profile_gf2", _raise)
    monkeypatch.setattr(flags_module, "_profile_gf3", _raise)
    rebuilt = FlagCode(flag_from_matrix(q, 7, TypeVector.full(7), m)
                       for m in gens)
    assert [(projected_code(rebuilt, i), projected_distance(rebuilt, i))
            for i in range(1, 7)] == expected


@pytest.mark.parametrize("q", [2, 3])
def test_wrong_packed_profile_is_caught(monkeypatch, q):
    """Every pair reported at the maximal distance D^n: the theorem-derived
    projected parameters then disagree with the direct ones."""
    code = random_full_flag_code(q, 6, 4, random.Random(5))
    maximal = tuple(min(i, 6 - i) for i in range(1, 6))
    monkeypatch.setattr(flags_module, f"_profile_gf{q}",
                        lambda f, g: maximal)
    with pytest.raises(ConsistencyError):
        analyze(FlagCode(code.flags))
