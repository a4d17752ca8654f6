import pytest

from flagcomb import durfee_analysis, flags
from flagcomb import (DistancePath, EmbeddedPartition, FlagCode, TypeVector,
                      analyze, black_dots_in_rectangle, bound_from_codistance,
                      check_separability, codistance, durfee_rectangle,
                      durfee_sets_of_code, enumerate_embedded_partitions,
                      ferrers_subdiagrams_of_code, flag_distance_bounds,
                      flag_from_matrix, is_optimum_distance, max_distance,
                      min_distance, paths_of_code, projected_code,
                      projected_distance, rectangle_to_projected,
                      enumerate_paths, partition_of_staircase,
                      splitting_value, staircase_class)
from flagcomb.durfee_analysis import durfee_rectangle_transposed
from flagcomb.errors import (ConsistencyError, IndexOutOfRange, NotFullFlag,
                             OffsetOutOfRange, RectangleOutsideFrame,
                             SingletonCode)
from flagcomb.flags import random_full_flag, random_full_flag_code

from conftest import reversed_flag, standard_flag


# ---------------------------------------------------------------------------
# Durfee rectangles of a single partition
# ---------------------------------------------------------------------------

def test_durfee_rectangle_example():
    p = EmbeddedPartition(6, (5, 4, 3, 1))
    assert durfee_rectangle(p, 0).rows == 3    # classic Durfee square
    assert durfee_rectangle(p, 2).rows == 2    # rows with lambda_t >= t+2
    assert durfee_rectangle(p, 2).cols == 4
    assert durfee_rectangle(p, 4).rows == 1
    with pytest.raises(OffsetOutOfRange):
        durfee_rectangle(p, 5)


def test_durfee_rectangle_null():
    p = EmbeddedPartition(6, ())
    r = durfee_rectangle(p, 0)
    assert r.rows == 0 and r.cols == 0


def test_durfee_rectangle_definition_brute_force():
    for n in (5, 6, 7):
        for p in enumerate_embedded_partitions(n):
            for k in range(0, n - 1):
                expect = max((t for t in range(1, len(p.parts) + 1)
                              if p.parts[t - 1] >= t + k), default=0)
                assert durfee_rectangle(p, k).rows == expect


def test_transposed_rectangle_brute_force():
    """Largest c such that a c x (c+k) rectangle (c+k rows) fits."""
    for n in (5, 6, 7):
        for p in enumerate_embedded_partitions(n):
            for k in range(0, n - 1):
                expect = max((t - k for t in range(1, len(p.parts) + 1)
                              if t - k >= 1 and p.parts[t - 1] >= t - k),
                             default=0)
                assert durfee_rectangle_transposed(p, k) == expect


# ---------------------------------------------------------------------------
# Black cells of corner rectangles
# ---------------------------------------------------------------------------

def test_black_dots_spot_values():
    assert black_dots_in_rectangle(2, 6, 8) == 6
    assert black_dots_in_rectangle(3, 3, 8) == 5
    with pytest.raises(RectangleOutsideFrame):
        black_dots_in_rectangle(2, 7, 8)


def test_black_dots_agree_with_cell_colors():
    """Formula vs direct count over all rectangles fitting in FF(n)."""
    for n in range(2, 13):
        for a in range(1, n):
            for b in range(1, n - a + 1):
                rect = EmbeddedPartition(n, (b,) * a)
                assert black_dots_in_rectangle(a, b, n) == splitting_value(rect)


# ---------------------------------------------------------------------------
# Per-code sets and theorem plumbing
# ---------------------------------------------------------------------------

def _extremal_code(q, n):
    return FlagCode([standard_flag(q, n), reversed_flag(q, n)])


def test_extremal_code_analysis():
    c = _extremal_code(2, 4)
    assert codistance(c) == 0
    assert paths_of_code(c) == frozenset({DistancePath(4, (0, 1, 2, 1, 0))})
    assert ferrers_subdiagrams_of_code(c) == frozenset({EmbeddedPartition(4, ())})
    assert durfee_sets_of_code(c) == {0: (0,), 2: (0,)}
    ok, conds = is_optimum_distance(c)
    assert ok and all(conds.values())
    for i in (1, 2, 3):
        assert rectangle_to_projected(c, i) == (True, min(i, 4 - i))


def test_singleton_code_limits():
    c = FlagCode([standard_flag(2, 4)])
    assert durfee_sets_of_code(c) == {}
    with pytest.raises(SingletonCode):
        is_optimum_distance(c)


def test_full_codes_only(type_135_code):
    with pytest.raises(NotFullFlag):
        durfee_sets_of_code(type_135_code)
    with pytest.raises(NotFullFlag):
        analyze(type_135_code)


def test_check_separability():
    # i(n-i)/2 ceilings: i=1,n=6 -> 3; i=3,n=6 -> 5
    assert check_separability(2, 6, 1)
    assert not check_separability(3, 6, 1)
    assert check_separability(4, 6, 3)
    with pytest.raises(IndexOutOfRange):
        check_separability(0, 6, 4)


def test_bound_from_codistance():
    # hypothesis of the distance bound: dbar < ceil(r(r+n-2i)/2)
    assert bound_from_codistance(0, 8, 3, 1)
    assert bound_from_codistance(3, 8, 3, 2)   # ceil(2*4/2) = 4
    assert not bound_from_codistance(4, 8, 3, 2)
    with pytest.raises(IndexOutOfRange):
        bound_from_codistance(0, 8, 2, 3)      # r may not exceed i


def test_flag_distance_bounds_examples():
    assert flag_distance_bounds(8, 4, True, 2) == (4, 14)
    assert flag_distance_bounds(8, 3, True, 1) == (1, 12)
    assert flag_distance_bounds(8, 2, False) == (0, 10)
    # symmetric in i <-> n-i
    assert flag_distance_bounds(8, 5, True, 1) == flag_distance_bounds(8, 3, True, 1)
    with pytest.raises(ValueError):
        flag_distance_bounds(8, 3, True)
    with pytest.raises(IndexOutOfRange):
        flag_distance_bounds(8, 8, False)


# ---------------------------------------------------------------------------
# Full analysis on random codes: every theorem-derived value is
# cross-checked against direct computation inside analyze().
# ---------------------------------------------------------------------------

def test_analyze_reports_consistent_values(rng):
    for _ in range(60):
        n = rng.randint(4, 7)
        q = rng.choice([2, 3])
        c = random_full_flag_code(q, n, rng.randint(2, 4), rng)
        report = analyze(c)
        assert report.consistent
        assert (report.q, report.n, report.size) == (q, n, len(c))
        assert report.d_f == min_distance(c)
        assert report.codistance == max_distance(n) - report.d_f
        for i in range(1, n):
            card, di = report.projected[i]
            assert card == len(projected_code(c, i))
            assert di == projected_distance(c, i)
            lo, hi = report.bounds[i]
            assert lo <= report.d_f <= hi
        ok, _ = is_optimum_distance(c)
        assert report.optimum == ok == (report.codistance == 0)


def test_derived_matches_direct_when_separable(rng):
    """When the separability hypothesis holds, all middle projections keep
    the full cardinality."""
    hits = 0
    for _ in range(80):
        n = rng.randint(4, 6)
        c = random_full_flag_code(2, n, 2, rng)
        dbar = max_distance(n) - min_distance(c)
        for i in range(1, n // 2 + 1):
            if check_separability(dbar, n, i):
                hits += 1
                for j in range(i, n - i + 1):
                    assert len(projected_code(c, j)) == len(c)
    assert hits > 0


# ---------------------------------------------------------------------------
# The one-pass rectangle sizes against the reference kernels
# ---------------------------------------------------------------------------

def _reference_sizes(p):
    n = p.n
    return tuple(durfee_rectangle(p, n - 2 * i).rows if 2 * i <= n
                 else durfee_rectangle_transposed(p, 2 * i - n)
                 for i in range(1, n))


def test_rect_sizes_match_reference_kernels():
    for n in range(2, 11):
        for p in enumerate_embedded_partitions(n):
            assert durfee_analysis._rect_sizes(p) == _reference_sizes(p)


def test_rect_table_sorts_distinct_sizes_per_dimension():
    parts = [EmbeddedPartition(6, ()), EmbeddedPartition(6, (3, 2)),
             EmbeddedPartition(6, (5, 4, 3, 2, 1)), EmbeddedPartition(6, (1,))]
    table = durfee_analysis._rect_table(frozenset(parts))
    for i in range(1, 6):
        assert table[i] == tuple(sorted({_reference_sizes(p)[i - 1]
                                         for p in parts}, reverse=True))
    assert durfee_analysis._rect_table(frozenset()) == {}


def test_staircase_class_rectangle_law():
    """Every staircase of Σ(Γ) has rectangle size min(i, n-i) - δ_i at every
    dimension i: the law a derivation of D_k(C) from the paths rests on."""
    for n in range(2, 11):
        for p in enumerate_paths(n):
            law = tuple(min(i, n - i) - p.deltas[i] for i in range(1, n))
            for s in staircase_class(p):
                assert _reference_sizes(partition_of_staircase(s)) == law


# ---------------------------------------------------------------------------
# One pass over the pairs: analyze() profiles each pair once, reads the
# Durfee table off Γ(C) without expanding a staircase class, and still runs
# every direct cross-check.
# ---------------------------------------------------------------------------

# Five coordinate flags on F_2^6; row r of a generator is e_{w(r)}.
FIVE_PERMS = [(1, 2, 3, 4, 5, 6), (2, 3, 4, 5, 6, 1), (6, 1, 2, 3, 4, 5),
              (2, 1, 4, 3, 6, 5), (1, 3, 4, 2, 5, 6)]


def _five_flag_code():
    return FlagCode([flag_from_matrix(2, 6, TypeVector.full(6),
                                      [[int(col == w - 1) for col in range(6)]
                                       for w in perm])
                     for perm in FIVE_PERMS])


def _record_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_analyze_profiles_each_pair_once(monkeypatch):
    c = _five_flag_code()
    assert len(c) == 5
    profiled = _record_calls(monkeypatch, flags, "pair_distance_profile")
    expanded = _record_calls(monkeypatch, durfee_analysis, "staircase_class")
    analyze(c)
    assert len(profiled) == 10
    assert expanded == []


@pytest.mark.parametrize("bad_i", range(1, 6))
def test_analyze_still_cross_checks_every_dimension(monkeypatch, bad_i):
    c = _five_flag_code()
    direct = durfee_analysis.projected_parameters
    monkeypatch.setattr(durfee_analysis, "projected_parameters",
                        lambda code, i: (direct(code, i)[0],
                                         direct(code, i)[1] + (i == bad_i)))
    with pytest.raises(ConsistencyError, match=f"dimension {bad_i}: "):
        analyze(c)
