import dataclasses

import pytest

from flagcomb import durfee_analysis, flags, support_paths
from flagcomb import (DistancePath, EmbeddedPartition, FlagCode, TypeVector,
                      analyze, black_dots_in_rectangle,
                      check_separability, codistance, durfee_rectangle,
                      durfee_sets_of_code, enumerate_embedded_partitions,
                      ferrers_subdiagrams_of_code, flag_distance_bounds,
                      flag_from_matrix, is_optimum_distance, max_distance,
                      min_distance, paths_of_code, projected_code,
                      projected_distance, rectangle_to_projected,
                      enumerate_paths, partition_of_staircase,
                      splitting_value, staircase_class)
from flagcomb.durfee_analysis import durfee_rectangle_transposed
from flagcomb.errors import (CellOutsideFrame, ConsistencyError,
                             IndexOutOfRange, NotFullFlag, OffsetOutOfRange,
                             RectangleOutsideFrame, SingletonCode)
from flagcomb.ferrers import StaircasePath, cell_color
from flagcomb.flags import projection, random_full_flag_code
from flagcomb.support_paths import range_r

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


def _projected_table_off_at(monkeypatch, bad_i):
    """analyze reads a projected table whose d_I(C_i) is one too large at
    dimension bad_i, and the true one everywhere else."""
    def planted(c):
        return tuple((card, d_i + (i == bad_i)) for i, (card, d_i)
                     in enumerate(flags.projected_table(c), start=1))

    monkeypatch.setattr(durfee_analysis, "projected_table", planted)


@pytest.mark.parametrize("bad_i", range(1, 6))
def test_analyze_still_cross_checks_every_dimension(monkeypatch, bad_i):
    c = _five_flag_code()
    _projected_table_off_at(monkeypatch, bad_i)
    with pytest.raises(ConsistencyError, match=f"dimension {bad_i}: "):
        analyze(c)


def test_a_rectangle_past_its_bound_is_a_consistency_failure(monkeypatch):
    """A law table with a 3-row rectangle at i = 2, past the bound
    (n - k)/2 = 2 for k = n - 4 = 2; the real sizes there are at most 2."""
    c = _five_flag_code()
    real = durfee_analysis._law_table

    def planted(gamma):
        table = real(gamma)
        assert max(table[2]) <= 2
        table[2] = (3, *table[2])
        return table

    monkeypatch.setattr(durfee_analysis, "_law_table", planted)
    with pytest.raises(ConsistencyError, match="^rectangle with 3 rows "
                                               "exceeds the bound for k=2$"):
        analyze(c)
    assert c._analysis is None


# ---------------------------------------------------------------------------
# The kept report: analyze runs once per code, and durfee_sets_of_code,
# rectangle_to_projected and is_optimum_distance only read it.
# ---------------------------------------------------------------------------

def _views(c):
    return (durfee_sets_of_code(c),
            [rectangle_to_projected(c, i) for i in range(1, c.n)],
            is_optimum_distance(c))


def test_analyze_keeps_one_report_per_code():
    c = _five_flag_code()
    report = analyze(c)
    assert analyze(c) is report
    assert analyze(_five_flag_code()) is not report
    assert analyze(_five_flag_code()) == report


def test_views_read_the_kept_report(monkeypatch):
    c = _five_flag_code()
    report = analyze(c)
    counted = [_record_calls(monkeypatch, module, name)
               for module, name in [(durfee_analysis, "paths_of_code"),
                                    (support_paths, "paths_of_code"),
                                    (durfee_analysis, "_law_table"),
                                    (flags, "pair_distance_profile"),
                                    (flags, "chain_path")]]
    durfee, derived, (ok, conds) = _views(c)
    assert counted == [[]] * 5
    assert durfee == report.durfee_sets
    assert derived == [report.derived[i] for i in range(1, c.n)]
    assert conds == dict.fromkeys(
        ("codistance_zero", "unique_max_path", "ferrers_set"), ok)
    assert ok == report.optimum


def test_views_before_analyze_run_it_once(monkeypatch):
    c = _five_flag_code()
    gamma = _record_calls(monkeypatch, durfee_analysis, "paths_of_code")
    views = _views(c)
    assert len(gamma) == 1
    assert views == _views(_five_flag_code())


def test_failed_analyze_keeps_nothing(monkeypatch):
    c = _five_flag_code()
    _projected_table_off_at(monkeypatch, 2)
    for _ in range(2):
        with pytest.raises(ConsistencyError, match="dimension 2: "):
            analyze(c)
        assert c._analysis is None
    for view in (durfee_sets_of_code, is_optimum_distance,
                 lambda code: rectangle_to_projected(code, 1)):
        with pytest.raises(ConsistencyError, match="dimension 2: "):
            view(c)


def test_report_is_frozen():
    report = analyze(_five_flag_code())
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.d_f = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.optimum = not report.optimum


@pytest.mark.parametrize("field", ["projected", "derived", "durfee_sets",
                                   "separability", "bounds"])
def test_report_maps_are_read_only(field):
    """A write into the kept report's maps raises, and every later reader
    sees what a fresh analysis of the same flags gives."""
    c = _five_flag_code()
    mapping = getattr(analyze(c), field)
    key = next(iter(mapping))
    with pytest.raises(TypeError):
        mapping[key] = (99, 99)
    with pytest.raises(TypeError):
        del mapping[key]
    fresh = analyze(_five_flag_code())
    assert analyze(c) == fresh
    assert durfee_sets_of_code(c) == fresh.durfee_sets
    assert [rectangle_to_projected(c, i) for i in range(1, c.n)] == [
        fresh.derived[i] for i in range(1, c.n)]


@pytest.mark.parametrize("analyzed", [False, True])
def test_view_error_order_is_unchanged(type_135_code, analyzed):
    """NotFullFlag, then SingletonCode, then IndexOutOfRange, whether or
    not the code already holds a report."""
    singleton, pair = (FlagCode([standard_flag(2, 4)]),
                       _extremal_code(2, 4))
    if analyzed:
        analyze(singleton)
        analyze(pair)
    for general in (type_135_code, FlagCode(type_135_code.flags[:1])):
        for view in (durfee_sets_of_code, is_optimum_distance,
                     lambda code: rectangle_to_projected(code, 99)):
            with pytest.raises(NotFullFlag):
                view(general)
    assert durfee_sets_of_code(singleton) == {}
    for view in (is_optimum_distance,
                 lambda code: rectangle_to_projected(code, 99)):
        with pytest.raises(SingletonCode):
            view(singleton)
    for i in (0, 4, 2.5, "2"):
        with pytest.raises(IndexOutOfRange):
            rectangle_to_projected(pair, i)


# ---------------------------------------------------------------------------
# A non-int index or size is out of range, not a TypeError or KeyError
# ---------------------------------------------------------------------------

_PAIR, _PART = _extremal_code(2, 5), EmbeddedPartition(6, (3, 1))


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: flag_distance_bounds(5, 2.5, False),
                 IndexOutOfRange, id="flag_distance_bounds(5, 2.5, False)"),
    pytest.param(lambda: flag_distance_bounds(5, 2, True, 1.0),
                 IndexOutOfRange, id="flag_distance_bounds(5, 2, True, 1.0)"),
    pytest.param(lambda: max_distance(5.0), ValueError,
                 id="max_distance(5.0)"),
    pytest.param(lambda: black_dots_in_rectangle(1.5, 1, 4),
                 RectangleOutsideFrame,
                 id="black_dots_in_rectangle(1.5, 1, 4)"),
    pytest.param(lambda: black_dots_in_rectangle(1, 1, 4.0),
                 RectangleOutsideFrame,
                 id="black_dots_in_rectangle(1, 1, 4.0)"),
    pytest.param(lambda: check_separability(0, 5, 1.5), IndexOutOfRange,
                 id="check_separability(0, 5, 1.5)"),
    pytest.param(lambda: check_separability(0, 5.0, 1), IndexOutOfRange,
                 id="check_separability(0, 5.0, 1)"),
    pytest.param(lambda: durfee_rectangle(_PART, 0.5), OffsetOutOfRange,
                 id="durfee_rectangle(p, 0.5)"),
    pytest.param(lambda: durfee_rectangle_transposed(_PART, 1.0),
                 OffsetOutOfRange, id="durfee_rectangle_transposed(p, 1.0)"),
    pytest.param(lambda: cell_color(4, 1, 1.0), CellOutsideFrame,
                 id="cell_color(4, 1, 1.0)"),
    pytest.param(lambda: cell_color(4, 1.0, 1), CellOutsideFrame,
                 id="cell_color(4, 1.0, 1)"),
    pytest.param(lambda: rectangle_to_projected(_PAIR, 2.5), IndexOutOfRange,
                 id="rectangle_to_projected(c, 2.5)"),
    pytest.param(lambda: projection(_PAIR.flags[0], 2.5), IndexOutOfRange,
                 id="projection(f, 2.5)"),
    pytest.param(lambda: projected_code(_PAIR, 2.5), IndexOutOfRange,
                 id="projected_code(c, 2.5)"),
    pytest.param(lambda: projected_distance(_PAIR, 2.5), IndexOutOfRange,
                 id="projected_distance(c, 2.5)"),
    pytest.param(lambda: range_r(1.0, 3), IndexOutOfRange,
                 id="range_r(1.0, 3)"),
    pytest.param(lambda: range_r(1, 3.0), IndexOutOfRange,
                 id="range_r(1, 3.0)"),
])
def test_non_int_index_or_size_is_out_of_range(call, error):
    with pytest.raises(error):
        call()


def test_bool_index_stays_accepted():
    assert flag_distance_bounds(5, True, False) == flag_distance_bounds(
        5, 1, False)
    assert cell_color(4, True, True) == cell_color(4, 1, 1)
    assert range_r(True, 3) == range_r(1, 3)
    assert rectangle_to_projected(_PAIR, True) == rectangle_to_projected(
        _PAIR, 1)


# ---------------------------------------------------------------------------
# Each staircase class is built once per analyze, for the law check and the
# optimum vote both
# ---------------------------------------------------------------------------

def _plateau_code(n=12):
    """Three coordinate flags on F_2^n whose pair paths have 5 to 9 plateaus;
    row r of a generator is e_{w(r)}."""
    base = list(range(n))
    perms = [base, base[1:7] + [0] + base[7:],
             base[:4] + base[5:11] + [4] + base[11:]]
    return FlagCode([flag_from_matrix(2, n, TypeVector.full(n),
                                      [[int(col == w) for col in range(n)]
                                       for w in perm])
                     for perm in perms])


def _count_staircases(monkeypatch):
    built, check = [], StaircasePath.__post_init__
    monkeypatch.setattr(StaircasePath, "__post_init__",
                        lambda self: (built.append(self.profile), check(self)))
    return built


def test_analyze_reads_each_class_rows_once(monkeypatch):
    code = _plateau_code()
    gamma = paths_of_code(code)
    calls = _record_calls(monkeypatch, durfee_analysis, "_class_rows")
    analyze(code)
    assert len(gamma) == 3
    assert len(calls) == len(gamma) and {p for (p,) in calls} == gamma


def test_optimum_vote_walks_only_classes_inside_the_optimum_set(
        monkeypatch):
    """Every class of the plateau code has an extreme partition outside
    {null, (1)}, so the vote builds no staircase; an optimum code's class
    lies inside, so the vote walks all of it (two staircases at n = 7)."""
    for code, optimum in ((_plateau_code(), False),
                          (_extremal_code(2, 7), True)):
        gamma = paths_of_code(code)
        table = durfee_analysis._law_table(gamma)
        walked = [s.profile for p in gamma for s in staircase_class(p)
                  if optimum]
        built = _count_staircases(monkeypatch)
        assert durfee_analysis._optimum_conditions(
            codistance(code), gamma, table, code.n) is optimum
        assert built == walked and len(walked) == 2 * optimum
        monkeypatch.undo()
