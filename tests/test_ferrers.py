import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagcomb.ferrers as ferrers_module
from flagcomb import (DistancePath, EmbeddedPartition,
                      StaircasePath, UnderlyingDistribution, cell_color,
                      distance_equivalent, enumerate_embedded_partitions,
                      enumerate_paths, is_embedded, max_distance,
                      partition_of_staircase, path_codistance,
                      plateau_count, skeleton_of_staircase, splitting_value,
                      splittings_of_codistance, staircase_class,
                      staircase_of_partition, underlying_distribution)
from flagcomb.errors import (CellOutsideFrame, EnumerationLimitExceeded,
                             FrameMismatch, NotAPartition, NotEmbedded)
from flagcomb.counting import (count_partitions_by_value,
                               count_paths_by_distance,
                               count_splittings_by_value)
from flagcomb.ferrers import (BLACK, RED, black_cells, iter_partitions,
                              splittings_by_value, trace_staircase)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


@pytest.mark.parametrize("args, error, match", [
    ((5, "x"), ValueError, "splitting_filter"),
    ((5.0,), ValueError, "n"),
    ((40,), EnumerationLimitExceeded, "cap 14"),
])
def test_iter_partitions_checks_its_arguments_at_the_call(args, error, match):
    """The checks run when iter_partitions is called, not at the first step
    of the generator it returns; 14 is the default cap."""
    with pytest.raises(error, match=match):
        iter_partitions(*args)


def test_splittings_by_value_checks_the_cap_before_it_sizes_the_groups(
        monkeypatch):
    """n = 40 is refused before the D^n + 1 groups of its values are built,
    so an n far past the cap allocates nothing."""
    sized = []
    monkeypatch.setattr(ferrers_module, "max_distance",
                        lambda n: sized.append(n) or 0)
    with pytest.raises(EnumerationLimitExceeded, match="cap 14"):
        ferrers_module.splittings_by_value(40)
    assert sized == []


# ---------------------------------------------------------------------------
# Frame geometry
# ---------------------------------------------------------------------------

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
        colors = [cell_color(n, i, j)
                  for i in range(1, n) for j in range(1, n - i + 1)]
        assert colors.count(BLACK) == max_distance(n)
        assert colors.count(RED) == max_distance(n - 1)
        assert len(colors) == n * (n - 1) // 2


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


def _first_seen_splittings(n):
    """u -> the black-cell counts per row of the first partition (in
    enumeration order) of each distinct black diagram, from cell colors."""
    first = {}
    for p in enumerate_embedded_partitions(n):
        counts = tuple(sum(cell_color(n, i, j) == BLACK
                           for j in range(1, lam + 1))
                       for i, lam in enumerate(p.parts, start=1))
        diagram = counts
        while diagram and diagram[-1] == 0:
            diagram = diagram[:-1]
        first.setdefault(sum(counts), {}).setdefault(diagram, counts)
    return first


@pytest.mark.parametrize("n", range(2, 9))
def test_splittings_keep_first_seen_representatives(n):
    """.counts, not the distributions: equality ignores trailing zeros."""
    first = _first_seen_splittings(n)
    for u in range(max_distance(n) + 1):
        got = sorted(d.counts for d in splittings_of_codistance(n, u))
        assert got == sorted(first.get(u, {}).values())


@pytest.mark.parametrize("n", range(2, 10))
def test_splitting_filter_matches_unfiltered_enumeration(n):
    everything = enumerate_embedded_partitions(n)
    for u in range(max_distance(n) + 2):
        assert enumerate_embedded_partitions(n, u) == [
            p for p in everything if splitting_value(p) == u]


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


def test_splitting_filter_prunes_subtrees_past_u(monkeypatch):
    """The carried value never decreases down the walk, so the walk for u
    visits just the nodes of value at most u, not all Catalan(11) of them."""
    visited = list(ferrers_module._walk(11, None))
    assert len(visited) == catalan(11)
    by_u = count_partitions_by_value(11)
    for u in (0, 5, 12):
        visited = list(ferrers_module._walk(11, u))
        assert len(visited) == sum(by_u[:u + 1])
        assert all(value <= u for _, _, value in visited)
    everything = enumerate_embedded_partitions(11, max_n=11)
    # the public enumerator hands u to the walk as its prune bound
    nodes = []
    real = ferrers_module._walk
    monkeypatch.setattr(ferrers_module, "_walk",
                        lambda *args: (nodes.append(node) or node
                                       for node in real(*args)))
    kept = enumerate_embedded_partitions(11, 0, max_n=11)
    assert kept == [p for p in everything if splitting_value(p) == 0]
    assert len(kept) == 2
    assert len(nodes) == sum(by_u[:1])


# ---------------------------------------------------------------------------
# The grown walk against the walk that builds every node from scratch
# ---------------------------------------------------------------------------

def _reference_walk(n):
    """Every embedded partition of FF(n), lexicographic, each node built
    by the full constructor (is_embedded on all its parts)."""
    out = []

    def gen(prefix, bound, row):
        out.append(EmbeddedPartition(n, tuple(prefix)))
        if row > n - 1:
            return
        for v in range(1, min(bound, n - row) + 1):
            prefix.append(v)
            gen(prefix, v, row + 1)
            prefix.pop()

    gen([], n - 1, 1)
    return out


@pytest.mark.parametrize("n", range(2, 12))
def test_grown_walk_matches_reference(n):
    reference = _reference_walk(n)
    nodes = list(ferrers_module._walk(n, None))
    assert [parts for parts, _, _ in nodes] == [q.parts for q in reference]
    for (_, counts, value), q in zip(nodes, reference):
        assert counts == underlying_distribution(q).counts
        assert value == sum(counts)
    listed = enumerate_embedded_partitions(n, max_n=n)
    assert listed == reference
    for p, q in zip(listed, reference):
        assert type(p) is EmbeddedPartition
        assert hash(p) == hash(q) and repr(p) == repr(q)
    by_u = {}
    for q in reference:
        by_u.setdefault(splitting_value(q), []).append(q)
    for u in range(max_distance(n) + 2):
        assert enumerate_embedded_partitions(n, u, max_n=n) == by_u.get(u, [])


@pytest.mark.parametrize("n", range(2, 12))
def test_splittings_by_value_matches_reference_grouping(n):
    """The first distribution of each splitting, as a set keeps it."""
    reference = {u: set() for u in range(max_distance(n) + 1)}
    for q in _reference_walk(n):
        dist = underlying_distribution(q)
        reference[sum(dist.counts)].add(dist)
    got = splittings_by_value(n, max_n=n)
    assert got == reference
    for u, dists in reference.items():
        assert (sorted(d.counts for d in got[u])
                == sorted(d.counts for d in dists))


def _built(make):
    try:
        return make()
    except (NotAPartition, NotEmbedded) as exc:
        return type(exc)


@pytest.mark.parametrize("n", range(2, 9))
def test_grow_raises_exactly_when_the_constructor_raises(n):
    """The walk grows a node by the part v exactly when the full
    constructor accepts the longer partition."""
    grown = {parts for parts, _, _ in ferrers_module._walk(n, None)}
    for p in _reference_walk(n):
        for v in range(-1, n + 1):
            built = _built(lambda: EmbeddedPartition(n, p.parts + (v,)))
            accepted = not isinstance(built, type)
            assert (p.parts + (v,) in grown) == accepted, (p.parts, v)


@pytest.mark.parametrize("call", [
    enumerate_paths, enumerate_embedded_partitions, count_paths_by_distance,
    splittings_by_value, count_partitions_by_value],
    ids=lambda call: call.__name__)
def test_a_float_n_is_not_an_int(call):
    """A float n is refused as a non-int, not read as n < 2 nor passed on
    to range()."""
    with pytest.raises(ValueError, match="n must be an int, got 5.0"):
        call(5.0)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_partition_layer_needs_n_at_least_2(n):
    with pytest.raises(ValueError, match=f"need n >= 2, got {n}"):
        enumerate_embedded_partitions(n)
    with pytest.raises(ValueError, match=f"need n >= 2, got {n}"):
        splittings_by_value(n)
    for count in (count_partitions_by_value, count_splittings_by_value,
                  count_paths_by_distance):
        with pytest.raises(ValueError, match=f"need n >= 2, got {n}"):
            count(n)


# ---------------------------------------------------------------------------
# The counting DPs against the walk, and against each other
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 13))
def test_count_partitions_by_value_matches_the_walk(n):
    by_u = [0] * (max_distance(n) + 1)
    for _, _, value in ferrers_module._walk(n, None):
        by_u[value] += 1
    assert count_partitions_by_value(n) == by_u
    assert sum(by_u) == catalan(n)


@pytest.mark.parametrize("n", range(2, 13))
def test_count_splittings_by_value_matches_splittings_by_value(n):
    groups = splittings_by_value(n, max_n=n)
    assert count_splittings_by_value(n) == [
        len(groups[u]) for u in range(max_distance(n) + 1)]


def motzkin(n):
    """Motzkin numbers by (k + 2) M_k = (2k + 1) M_{k-1} + (3k - 3) M_{k-2}."""
    m = [1, 1]
    for k in range(2, n + 1):
        m.append(((2 * k + 1) * m[-1] + (3 * k - 3) * m[-2]) // (k + 2))
    return m[n]


@pytest.mark.parametrize("n", range(13, 61))
def test_bijection_dps_agree_past_the_enumerators(n):
    """The whole range bijection accepts past the enumerators' 12."""
    splittings = count_splittings_by_value(n)
    paths = count_paths_by_distance(n)
    assert paths == splittings[::-1]
    assert sum(paths) == motzkin(n)
    assert sum(splittings) < sum(count_partitions_by_value(n)) == catalan(n)


@pytest.mark.parametrize("n", range(2, 10))
def test_partition_of_staircase_equals_the_validated_build(n):
    """partition_of_staircase skips is_embedded; on every staircase of every
    class it still gives what the validating constructor gives."""
    for p in enumerate_paths(n):
        for s in staircase_class(p):
            got = partition_of_staircase(s)
            want = EmbeddedPartition(n, tuple(x for x in s.profile if x))
            assert got == want and type(got.parts) is tuple, s.profile
