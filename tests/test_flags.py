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
from flagcomb.flags import (pair_distance_profile, random_full_flag,
                            random_full_flag_code)
from flagcomb.gfq_linalg import (RowSpace, Subspace, is_contained,
                                 subspace_from_rows)

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


def test_more_than_n_rows_rejected():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    for tv in (TypeVector.full(3), TypeVector(3, (1,))):
        with pytest.raises(RankDeficient) as exc:
            flag_from_matrix(2, 3, tv, rows)
        assert exc.value.prefix == 4


def test_every_row_past_the_last_type_dim_is_read():
    """A type-(1,3) block on F_2^4 reads its fourth row too: a dependent
    one raises, an independent one builds the same flag as three rows."""
    tv = TypeVector(4, (1, 3))
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    with pytest.raises(RankDeficient) as exc:
        flag_from_matrix(2, 4, tv, rows + [[1, 1, 0, 0]])
    assert exc.value.prefix == 4
    flag = flag_from_matrix(2, 4, tv, rows + [[0, 1, 1, 1]])
    assert flag == flag_from_matrix(2, 4, tv, rows)
    assert flag.generator[3] == (0, 1, 1, 1)


def test_flag_equality_by_subspaces_not_generators():
    a = flag_from_matrix(2, 3, TypeVector.full(3),
                         [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    b = flag_from_matrix(2, 3, TypeVector.full(3),
                         [[1, 0, 0], [1, 1, 0], [1, 1, 1]])
    assert a == b and hash(a) == hash(b)
    assert len(FlagCode([a, b])) == 1


def test_wrong_width_later_row_rejected():
    """Every row's width is checked, not only the first one's."""
    with pytest.raises(TypeMismatch, match="expected 3 columns, got 2"):
        flag_from_matrix(2, 3, TypeVector.full(3),
                         [[1, 0, 0], [0, 1, 0], [0, 1]])
    with pytest.raises(TypeMismatch, match="expected 3 columns, got 4"):
        flag_from_matrix(2, 3, TypeVector(3, (1,)),
                         [[1, 0, 0], [0, 1, 0, 0]])


class _Int(int):
    pass


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("entry", [1.0, 0.0, "1"])
def test_non_integer_entry_raises_type_mismatch(q, entry):
    """A float or str entry raises TypeMismatch at every q, wherever it
    stands; at q >= 5 a 0.0 off the pivots is never inverted, so only the
    entry check catches it."""
    tv = TypeVector.full(3)
    base = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for r in range(3):
        for c in range(3):
            rows = [row[:] for row in base]
            rows[r][c] = entry
            with pytest.raises(TypeMismatch, match="must be integers"):
                flag_from_matrix(q, 3, tv, rows)
    # integer subclasses are integers
    rows = [[_Int(e) for e in row] for row in base]
    rows[0][1] = True
    assert (flag_from_matrix(q, 3, tv, rows)
            == flag_from_matrix(q, 3, tv, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_generator_entries_reduced_mod_q():
    f = flag_from_matrix(3, 3, TypeVector.full(3),
                         [[4, -1, 0], [0, 7, 3], [-3, 0, 5]])
    assert f.generator == ((1, 2, 0), (0, 1, 0), (0, 0, 2))
    assert f == flag_from_matrix(3, 3, TypeVector.full(3), f.generator)


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
    m = random_full_flag(3, 5, rng).generator
    assert subspace_from_rows(3, 5, m).dim == 5
    c = random_full_flag_code(2, 4, 5, rng)
    assert len(c) == 5 and c.is_full


def _invertible_rows_by_rowspace(q, n, rng):
    """The rejection loop on RowSpace.add: a row is kept iff the rank grows."""
    space, rows = RowSpace(q, n), []
    while len(rows) < n:
        row = [rng.randrange(q) for _ in range(n)]
        if space.add(row):
            rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_random_full_flag_keeps_the_rowspace_stream(q):
    """Subspace.extend accepts and rejects the same rows as RowSpace.add,
    so a seed draws the same generator and leaves the rng in the same
    state, and the flag is the one its generator spans."""
    for seed in range(4):
        for n in (2, 3, 5, 8, 17):
            got_rng, ref_rng = random.Random(seed), random.Random(seed)
            flag = random_full_flag(q, n, got_rng)
            ref = _invertible_rows_by_rowspace(q, n, ref_rng)
            assert flag.generator == ref
            assert got_rng.getstate() == ref_rng.getstate()
            assert flag == flag_from_matrix(q, n, TypeVector.full(n),
                                            flag.generator)


class _CountingRandom(random.Random):
    """A Random that counts its randrange calls."""

    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_random_full_flag_extends_once_per_drawn_row(q, monkeypatch):
    """One Subspace.extend chain both decides each row and gives the flag's
    subspaces: no chain is rebuilt from the kept rows."""
    calls = []
    extend = Subspace.extend

    def counted(self, row):
        calls.append(row)
        return extend(self, row)

    monkeypatch.setattr(Subspace, "extend", counted)
    for n in (2, 5, 9):
        calls.clear()
        rng = _CountingRandom(n)
        random_full_flag(q, n, rng)
        assert len(calls) * n == rng.draws      # n entries per drawn row


def test_random_generators_check_q_first(rng):
    """q is checked before any draw: at q = 1 the rejection loop never
    ends and the count of full flags divides by zero."""
    with pytest.raises(ValueError, match="q = 1 is not prime"):
        random_full_flag(1, 3, rng)
    with pytest.raises(ValueError, match="q = 1 is not prime"):
        random_full_flag_code(1, 3, 2, rng)


@pytest.mark.parametrize("q, n, available", [(2, 2, 3), (2, 3, 21), (3, 2, 4)])
def test_random_code_size_is_bounded_by_the_full_flags(rng, q, n, available):
    """F_q^n has prod (q^i - 1)/(q - 1) full flags: asking for all of them
    returns them all, asking for one more raises instead of spinning."""
    c = random_full_flag_code(q, n, available, rng)
    assert len(set(c)) == available
    with pytest.raises(ValueError, match=f"has {available} full flags"):
        random_full_flag_code(q, n, available + 1, rng)


# ---------------------------------------------------------------------------
# The profile sweep against a stacked rank, and the kernels' independence
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
    q = draw(st.sampled_from((2, 3, 5, 7)))
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
    """The sweep, both ways round, against both prefixes ranked afresh on
    RowSpace at each dimension of the type, at q = 2, 3, 5 and 7."""
    f, g = pair
    reference = _sweep_reference(f, g)
    assert pair_distance_profile(f, g) == reference
    assert pair_distance_profile(g, f) == reference


def _sweep_reference(f, g):
    """d_I at each dimension of the type from a fresh elimination of both
    prefixes stacked, on the list kernel: nothing stops early."""
    return tuple(subspace_from_rows(f.q, f.n,
                                    f.generator[:t] + g.generator[:t]).dim - t
                 for t in f.type.dims)


def _exit_pairs(q, n, rng):
    """Generator pairs that fill F_q^n at about n/2 (random), later or never
    (coordinate permutations, a shared prefix of s rows)."""
    yield _completion(q, n, [], rng), _completion(q, n, [], rng)
    perms = [rng.sample(range(n), n) for _ in range(2)]
    yield [[[int(c == p) for c in range(n)] for p in perm] for perm in perms]
    f_rows = _completion(q, n, [], rng)
    yield f_rows, _completion(q, n, f_rows[:rng.randrange(n + 1)], rng)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_sweep_exit_equals_a_sweep_that_never_stops(q):
    """The sweep equals the reference on pairs that fill F_q^n early, late
    or never, for the full type, random types and types whose dimensions
    jump past the first t where F_t + G_t = F_q^n.  More than 30 of the
    cases fill F_q^n before the type's last dimension, so the exit is
    taken."""
    rng = random.Random(800 + q)
    early = 0
    for n in range(2, 17):
        half = (n + 1) // 2
        types = {tuple(range(1, n)),
                 tuple(sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))),
                 (1, n - 1) if n > 2 else (1,),
                 tuple(range(1, half)) + (n - 1,) if half > 1 else (n - 1,)}
        for f_rows, g_rows in _exit_pairs(q, n, rng):
            for dims in types:
                tv = TypeVector(n, dims)
                f, g = (flag_from_matrix(q, n, tv, rows)
                        for rows in (f_rows, g_rows))
                want = _sweep_reference(f, g)
                early += any(d == n - t for t, d in zip(dims[:-1], want))
                assert (pair_distance_profile(f, g)
                        == pair_distance_profile(g, f) == want), dims
    assert early > 30


def _raise(*_args):
    raise AssertionError("called a function patched to raise")


@pytest.mark.parametrize("q", [2, 3])
def test_direct_side_never_calls_packed_sweep(monkeypatch, q):
    """The direct side rebuilds the flags and computes every projected
    parameter with the profile sweep replaced by a lookup of the profiles
    of the first build, which runs no elimination.  The pair pass reads
    the sweep profiles only to check its paths against."""
    code = random_full_flag_code(q, 7, 5, random.Random(q))
    gens = [fl.generator for fl in code]
    expected = [(projected_code(code, i), projected_distance(code, i))
                for i in range(1, 7)]
    rebuilt = FlagCode(flag_from_matrix(q, 7, TypeVector.full(7), m)
                       for m in gens)
    kept = {pair: pair_distance_profile(*pair)
            for pair in itertools.combinations(code.flags, 2)}
    monkeypatch.setattr(flags_module, "pair_distance_profile",
                        lambda f, g: kept[f, g])
    assert [(projected_code(rebuilt, i), projected_distance(rebuilt, i))
            for i in range(1, 7)] == expected


@pytest.mark.parametrize("q", [2, 3])
def test_wrong_packed_profile_is_caught(monkeypatch, q):
    """Every pair reported at the maximal distance D^n: the theorem-derived
    projected parameters then disagree with the direct ones."""
    code = random_full_flag_code(q, 6, 4, random.Random(5))
    maximal = tuple(min(i, 6 - i) for i in range(1, 6))
    monkeypatch.setattr(flags_module, "pair_distance_profile",
                        lambda f, g: maximal)
    with pytest.raises(ConsistencyError):
        analyze(FlagCode(code.flags))


@pytest.mark.parametrize("q", [5, 7])
def test_sweep_and_nesting_recheck_never_call_rowspace_add(monkeypatch, q):
    """At q >= 5 the chain runs RowSpace.add, and the profile sweep and
    is_contained each run a loop of their own: with RowSpace.add made to
    raise, both return what they returned before, on pairs that share a
    prefix and pairs that do not, and on nested and unnested subspaces."""
    rng = random.Random(900 + q)
    n, tv = 8, TypeVector.full(8)
    f_rows = _completion(q, n, [], rng)
    flags = [flag_from_matrix(q, n, tv, rows) for rows in (
        f_rows, _completion(q, n, f_rows[:3], rng), _completion(q, n, [], rng))]
    spaces = [s for fl in flags for s in fl.subspaces]

    def results():
        return ([pair_distance_profile(f, g)
                 for f, g in itertools.permutations(flags, 2)],
                [is_contained(u, v) for u, v in itertools.product(spaces,
                                                                  repeat=2)])

    before = results()
    assert {True, False} <= set(before[1])
    assert any(0 in profile for profile in before[0])
    monkeypatch.setattr(RowSpace, "add", _raise)
    assert results() == before
