"""The Durfee table read off the distance paths by the class law, against
the full staircase expansion it stands in for."""

import itertools
import random

import pytest

from flagcomb import (DistancePath, EmbeddedPartition, FlagCode, analyze,
                      durfee_analysis, durfee_rectangle, durfee_sets_of_code,
                      enumerate_paths, ferrers, ferrers_subdiagrams_of_code,
                      is_optimum_distance, paths_of_code, projected_code,
                      projected_distance, random_full_flag_code, realize_path,
                      rectangle_to_projected, staircase_class)
from flagcomb.durfee_analysis import durfee_rectangle_transposed
from flagcomb.errors import ConsistencyError
from flagcomb.ferrers import StaircasePath, partition_of_staircase
from flagcomb.flags import random_full_flag

from conftest import reversed_flag, standard_flag

_law_table = durfee_analysis._law_table
_rect_table = durfee_analysis._rect_table


def _expanded(p):
    return frozenset(partition_of_staircase(s) for s in staircase_class(p))


def _plateau_path(n):
    return DistancePath(n, (0,) + (1,) * (n - 1) + (0,))


def _pair_code(n, q=2):
    return FlagCode(realize_path(_plateau_path(n), q))


def _random_codes():
    """Seeded random full codes (q 2-3, n 3-9), plus optimum pairs and
    optimum pairs with a third flag that is not optimum to them."""
    rng = random.Random(7)
    codes = []
    for _ in range(60):
        q, n = rng.choice([2, 3]), rng.randint(3, 9)
        codes.append(random_full_flag_code(q, n, rng.randint(2, 5), rng))
    for q, n in itertools.product((2, 3), range(3, 10)):
        pair = [standard_flag(q, n), reversed_flag(q, n)]
        codes.append(FlagCode(pair))
        codes.append(FlagCode(pair + [random_full_flag(q, n, rng)]))
    return codes


CODES = _random_codes()


# ---------------------------------------------------------------------------
# The law table against the expansion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 12))
def test_law_table_matches_expansion_on_every_path(n):
    for p in enumerate_paths(n):
        assert _law_table(frozenset({p}))[0] == _rect_table(_expanded(p)), p


def test_law_table_matches_expansion_on_random_codes():
    for c in CODES:
        assert (_law_table(paths_of_code(c))[0]
                == _rect_table(ferrers_subdiagrams_of_code(c))), c.flags


def _reference_sizes(p, i):
    n = p.n
    return (durfee_rectangle(p, n - 2 * i).rows if 2 * i <= n
            else durfee_rectangle_transposed(p, 2 * i - n))


def _reference_vals(c, i):
    return sorted({_reference_sizes(p, i)
                   for p in ferrers_subdiagrams_of_code(c)}, reverse=True)


def test_durfee_sets_match_expansion_reference():
    for c in CODES:
        n = c.n
        expected = {n - 2 * i: tuple(_reference_vals(c, i))
                    for i in range(1, n // 2 + 1)}
        assert durfee_sets_of_code(c) == expected, c.flags


def test_rectangle_to_projected_matches_expansion_reference():
    for c in CODES:
        n = c.n
        for i in range(1, n):
            vals, i_eff = _reference_vals(c, i), min(i, n - i)
            if vals[0] < i_eff:
                expected = (True, i_eff - vals[0])
            elif len(vals) == 1:
                expected = (False, 0)
            else:
                expected = (False, i_eff - vals[1])
            assert rectangle_to_projected(c, i) == expected, (c.flags, i)
            assert expected == (len(projected_code(c, i)) == len(c),
                                projected_distance(c, i))


def test_is_optimum_distance_matches_expansion_reference():
    optimum_seen = mixed_seen = 0
    for c in CODES:
        n = c.n
        optimal = {EmbeddedPartition(n, ())} | ({EmbeddedPartition(n, (1,))}
                                                if n % 2 else set())
        gamma = paths_of_code(c)
        ok, conds = is_optimum_distance(c)
        expanded = ferrers_subdiagrams_of_code(c)
        assert conds["ferrers_set"] == (expanded == optimal)
        assert ok == conds["ferrers_set"]
        optimum_seen += ok
        max_path = tuple(min(i, n - i) for i in range(n + 1))
        mixed_seen += (not ok) and max_path in {p.deltas for p in gamma}
    assert optimum_seen >= 14 and mixed_seen >= 1


# ---------------------------------------------------------------------------
# The spot check of the first and last staircase of each class
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad_i", range(1, 12))
def test_shifted_law_is_caught(monkeypatch, bad_i):
    law = durfee_analysis._class_law
    monkeypatch.setattr(
        durfee_analysis, "_class_law",
        lambda p: tuple(s + (i == bad_i) for i, s in enumerate(law(p), 1)))
    with pytest.raises(ConsistencyError, match="class law"):
        analyze(_pair_code(12))


@pytest.mark.parametrize("end", [0, -1])
def test_first_and_last_class_members_are_checked(monkeypatch, end):
    """A wrong rectangle size on either end of the class is caught; the
    middle members are never built."""
    code = _pair_code(12)
    (path,) = paths_of_code(code)
    rows = ferrers._class_rows(path)
    corrupt = partition_of_staircase(
        StaircasePath(12, tuple(r[end] for r in rows)))
    sizes = durfee_analysis._rect_sizes
    monkeypatch.setattr(
        durfee_analysis, "_rect_sizes",
        lambda p: tuple(s + 1 for s in sizes(p)) if p == corrupt else sizes(p))
    with pytest.raises(ConsistencyError, match="class law"):
        analyze(code)


def _count_staircases(monkeypatch):
    built = []
    check = StaircasePath.__post_init__
    monkeypatch.setattr(StaircasePath, "__post_init__",
                        lambda self: (built.append(self.profile), check(self)))
    return built


def test_law_table_builds_one_staircase_per_plateau_free_class(monkeypatch):
    built = _count_staircases(monkeypatch)
    for n in range(2, 9):
        for p in enumerate_paths(n):
            built.clear()
            _law_table(frozenset({p}))
            plateaus = any(0 < a == b for a, b in zip(p.deltas, p.deltas[1:]))
            assert len(built) == (2 if plateaus else 1), p


def test_analyze_builds_polynomially_many_staircases(monkeypatch):
    code = _pair_code(24)
    gamma = paths_of_code(code)
    built = _count_staircases(monkeypatch)
    report = analyze(code)
    assert len(built) <= 2 * len(gamma) + 3
    assert report.durfee_sets == {24 - 2 * i: (i - 1,) for i in range(1, 13)}
