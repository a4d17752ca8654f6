import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcomb import (DistancePath, EmbeddedPartition, FerrersFrame,
                      StaircasePath, UnderlyingDistribution, cell_color,
                      distance_equivalent, enumerate_embedded_partitions,
                      enumerate_paths, is_embedded, max_distance,
                      partition_of_staircase, path_codistance, path_distance,
                      plateau_count, skeleton_of_staircase, splitting_value,
                      splittings_of_codistance, staircase_class,
                      staircase_of_partition, underlying_distribution)
from flagcomb.errors import (CellOutsideFrame, EnumerationLimitExceeded,
                             FrameMismatch, NotAPartition, NotEmbedded)
from flagcomb.ferrers import BLACK, RED, black_cells, trace_staircase


def catalan(n):
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# Frame geometry
# ---------------------------------------------------------------------------

def test_frame_shape():
    ff = FerrersFrame(6)
    assert ff.row_lengths == (5, 4, 3, 2, 1)
    assert ff.total_cells == 15


def test_cell_color_rule():
    # row i (top down), position j counted from the right
    assert cell_color(6, 1, 1) == BLACK
    assert cell_color(6, 1, 2) == RED
    for n in range(2, 9):
        for i in range(1, n):
            for j in range(1, n - i + 1):
                expect = BLACK if (n + i + j) % 2 == 0 else RED
                assert cell_color(n, i, j) == expect
    with pytest.raises(CellOutsideFrame):
        cell_color(6, 1, 6)
    with pytest.raises(CellOutsideFrame):
        cell_color(6, 6, 1)


def test_frame_color_totals():
    """Black cells number D^n, red cells D^(n-1)."""
    for n in range(3, 13):
        ff = FerrersFrame(n)
        assert ff.black_count() == max_distance(n)
        assert ff.red_count() == max_distance(n - 1)
        assert ff.black_count() + ff.red_count() == ff.total_cells


# ---------------------------------------------------------------------------
# Embedded partitions
# ---------------------------------------------------------------------------

def test_is_embedded():
    assert is_embedded((5, 4, 3, 1), 6)
    assert is_embedded((), 6)
    assert not is_embedded((6,), 6)       # row 1 holds at most n-1 cells
    assert not is_embedded((4, 4, 4), 6)  # row 3 holds at most 3
    with pytest.raises(NotAPartition):
        is_embedded((2, 3), 6)


def test_embedded_partition_validation():
    p = EmbeddedPartition(6, (5, 4, 3, 1))
    assert p.weight == 13 and not p.is_null
    assert EmbeddedPartition(6, ()).is_null
    with pytest.raises(NotEmbedded):
        EmbeddedPartition(6, (6,))


def test_enumeration_counts_are_catalan():
    for n in range(2, 9):
        parts = enumerate_embedded_partitions(n)
        assert len(parts) == catalan(n)
        assert len(set(parts)) == len(parts)


def test_partitions_of_weight_five_in_ff6():
    parts = [p for p in enumerate_embedded_partitions(6) if p.weight == 5]
    assert len(parts) == 7
    assert {p.parts for p in parts} == {
        (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
        (1, 1, 1, 1, 1)}


def test_enumeration_cap():
    with pytest.raises(EnumerationLimitExceeded):
        enumerate_embedded_partitions(15)


# ---------------------------------------------------------------------------
# Underlying distributions and splittings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,parts,expected", [
    (7, (6, 3, 2), (3, 2, 1)),
    (8, (6, 5, 2, 1, 1), (3, 2, 1, 0, 1)),
    (8, (5, 5, 1, 1, 1, 1), (3, 2, 1, 0, 1, 0)),
    (7, (6, 5, 2, 1, 1), (3, 3, 1, 1, 0)),
    (6, (), ()),
])
def test_underlying_distribution_examples(n, parts, expected):
    dist = underlying_distribution(EmbeddedPartition(n, parts))
    assert dist.counts == expected
    assert splitting_value(EmbeddedPartition(n, parts)) == sum(expected)


def test_distribution_counts_black_cells():
    for n in range(2, 8):
        for p in enumerate_embedded_partitions(n):
            dist = underlying_distribution(p)
            cells = black_cells(p)
            by_row = [sum(1 for (i, j) in cells if i == r)
                      for r in range(1, len(p.parts) + 1)]
            assert list(dist.counts) == by_row
            assert splitting_value(p) == len(cells)


def test_distribution_equality_ignores_trailing_zeros():
    a = UnderlyingDistribution(8, (3, 2, 1, 0, 1, 0))
    b = UnderlyingDistribution(8, (3, 2, 1, 0, 1))
    assert a == b and hash(a) == hash(b)
    assert a.stripped == (3, 2, 1, 0, 1)
    assert a != UnderlyingDistribution(6, (3, 2, 1, 0, 1))


def test_splittings_of_codistance_endpoints():
    for n in (4, 5, 6):
        zero = splittings_of_codistance(n, 0)
        assert zero == {underlying_distribution(EmbeddedPartition(n, ()))}
        assert len(splittings_of_codistance(n, max_distance(n))) == 1
    with pytest.raises(ValueError):
        splittings_of_codistance(6, max_distance(6) + 1)


# ---------------------------------------------------------------------------
# Staircases
# ---------------------------------------------------------------------------

def test_staircase_validation():
    StaircasePath(6, (5, 4, 3, 2, 1))
    StaircasePath(6, (0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        StaircasePath(6, (5, 4, 3))          # wrong length
    with pytest.raises(ValueError):
        StaircasePath(6, (3, 4, 0, 0, 0))    # profile must not increase


def test_trace_dot_counts():
    for n in range(2, 8):
        for p in enumerate_embedded_partitions(n):
            dots = trace_staircase(staircase_of_partition(p))
            assert len(dots) == 2 * n + 1
            assert dots[0] == (-n, n) and dots[-1] == (0, 0)
            blacks = [d for d in dots if sum(d) % 2 == 0]
            assert len(blacks) == n + 1


def test_partition_staircase_roundtrip():
    for n in range(2, 8):
        for p in enumerate_embedded_partitions(n):
            assert partition_of_staircase(staircase_of_partition(p)) == p


def test_skeleton_is_a_valid_path_with_matching_codistance():
    """The skeleton of a staircase is a distance path whose codistance is
    the splitting value of the staircase's subdiagram."""
    for n in range(2, 8):
        for p in enumerate_embedded_partitions(n):
            s = staircase_of_partition(p)
            skel = skeleton_of_staircase(s)
            assert skel.n == n
            assert path_codistance(skel) == splitting_value(p)


def test_staircase_class_known_example():
    p = DistancePath(8, (0, 0, 0, 1, 2, 2, 1, 1, 0))
    cls = staircase_class(p)
    assert len(cls) == 4
    for s in cls:
        assert skeleton_of_staircase(s) == p
    assert len({s.profile for s in cls}) == 4


def test_staircase_class_sizes():
    """|Σ(Γ)| = 2^(positive plateaus), and classes partition all staircases."""
    for n in range(2, 8):
        total = 0
        for p in enumerate_paths(n):
            cls = staircase_class(p)
            assert len(cls) == 2 ** plateau_count(p)[1]
            for s in cls:
                assert skeleton_of_staircase(s) == p
            total += len(cls)
        assert total == catalan(n)


def _staircase_class_by_dots(p):
    """Σ(Γ) built member by member: add one red dot per step of the path,
    sort the dots and read each row off the rightmost dot at its height."""
    n = p.n
    blacks = [(i + p.deltas[i] - n, n + p.deltas[i] - i) for i in range(n + 1)]
    step_options = []
    for (u, v), (u2, v2) in zip(blacks, blacks[1:]):
        if v2 == v:                      # ascent
            step_options.append([(u + 1, v)])
        elif v2 == v - 2:                # descent
            step_options.append([(u, v - 1)])
        elif u + v == 0:                 # plateau at height 0
            step_options.append([(u + 1, v)])
        else:                            # positive plateau
            step_options.append([(u + 1, v), (u, v - 1)])
    out = []
    for reds in itertools.product(*step_options):
        dots = sorted(set(blacks) | set(reds), key=lambda d: (-d[1], d[0]))
        max_u = {}
        for u, v in dots:
            max_u[v] = max(max_u.get(v, u), u)
        out.append(tuple(min(-max_u[n + 1 - i], n - i) for i in range(1, n)))
    return out


def test_staircase_class_matches_dot_construction():
    """The plateau-row product gives the same members in the same order."""
    for n in range(2, 11):
        for p in enumerate_paths(n):
            cls = staircase_class(p)
            assert all(isinstance(s, StaircasePath) for s in cls)
            assert [s.profile for s in cls] == _staircase_class_by_dots(p)


# ---------------------------------------------------------------------------
# Distance-equivalence
# ---------------------------------------------------------------------------

def test_distance_equivalent_examples():
    a = EmbeddedPartition(8, (6, 5, 2, 1, 1))
    b = EmbeddedPartition(8, (5, 5, 1, 1, 1, 1))
    assert distance_equivalent(a, b)
    assert not distance_equivalent(a, EmbeddedPartition(8, (6, 5, 2, 1)))
    with pytest.raises(FrameMismatch):
        distance_equivalent(a, EmbeddedPartition(7, (6, 3, 2)))


def test_equivalence_is_an_equivalence_relation():
    parts = enumerate_embedded_partitions(6)
    for p in parts:
        assert distance_equivalent(p, p)
    for a, b in itertools.combinations(parts, 2):
        assert distance_equivalent(a, b) == distance_equivalent(b, a)


def test_equivalence_classes_match_splittings():
    """Classes under distance-equivalence biject with distinct splittings."""
    for n in range(2, 8):
        parts = enumerate_embedded_partitions(n)
        reps = []
        for p in parts:
            if not any(distance_equivalent(p, r) for r in reps):
                reps.append(p)
        distinct = {underlying_distribution(p) for p in parts}
        assert len(reps) == len(distinct)


@given(st.integers(3, 6), st.data())
@settings(max_examples=150)
def test_equivalent_partitions_share_distribution(n, data):
    parts = data.draw(st.lists(st.integers(1, n - 1), min_size=0, max_size=n - 1)
                      .map(lambda xs: tuple(sorted(xs, reverse=True))))
    parts = tuple(min(v, n - i) for i, v in enumerate(parts, start=1))
    parts = tuple(p for p in parts if p > 0)
    # re-sort after clamping to keep it a partition
    parts = tuple(sorted(parts, reverse=True))
    if not is_embedded(parts, n):
        return
    a = EmbeddedPartition(n, parts)
    for b in enumerate_embedded_partitions(n):
        same = distance_equivalent(a, b)
        assert same == (underlying_distribution(a) == underlying_distribution(b))
