"""Acceptance gate: one test (one pass/fail line under pytest -v) per
criterion.  Every expected value is asserted exactly; timed criteria also
assert their budget."""

import random
import time
from collections import Counter

import pytest

from flagcomb import (DistancePath, EmbeddedPartition, analyze,
                      black_dots_in_rectangle, check_separability,
                      enumerate_embedded_partitions, enumerate_paths,
                      flag_distance_bounds, is_optimum_distance,
                      max_distance, min_distance, path_codistance,
                      path_distance, path_from_flag_pair, pick_area,
                      projected_code, projected_distance, realize_path,
                      rectangle_to_projected, splitting_value,
                      staircase_class, underlying_distribution)
from flagcomb.codefile import parse_code
from flagcomb.flags import random_full_flag_code

from conftest import TYPE_135_TEXT


def test_criterion_01_example_code_parameters():
    start = time.perf_counter()
    c = parse_code(TYPE_135_TEXT)
    assert min_distance(c) == 2
    assert [projected_distance(c, i) for i in (1, 2, 3)] == [1, 3, 1]
    assert [len(projected_code(c, i)) for i in (1, 2, 3)] == [3, 2, 3]
    assert time.perf_counter() - start < 1.0


def test_criterion_02_max_distance_values():
    assert max_distance(7) == 12
    assert max_distance(8) == 16


def test_criterion_03_path_distance_by_sum_and_area():
    p = DistancePath(7, (0, 1, 2, 1, 1, 2, 1, 0))
    assert path_distance(p) == 8
    assert pick_area(p) == 8
    assert path_codistance(p) == 4


def test_criterion_04_partitions_of_five_in_ff6():
    parts = [p for p in enumerate_embedded_partitions(6) if p.weight == 5]
    assert len(parts) == 7


def test_criterion_05_underlying_distributions():
    u = underlying_distribution(EmbeddedPartition(7, (6, 3, 2)))
    assert u.counts == (3, 2, 1)
    u = underlying_distribution(EmbeddedPartition(8, (5, 5, 1, 1, 1, 1)))
    assert u.counts == (3, 2, 1, 0, 1, 0)


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: in a frame of odd side n=7 the rows "
           "alternate floor/ceil starting with floor, so (6,5,2,1,1) has "
           "underlying distribution (3,3,1,1,0); the stated (3,2,1,0,1) is "
           "the n=8 value of the same partition")
def test_criterion_05_underlying_distribution_stated_middle_case():
    u = underlying_distribution(EmbeddedPartition(7, (6, 5, 2, 1, 1)))
    assert u.counts == (3, 2, 1, 0, 1)


def test_criterion_06_staircase_class_size():
    p = DistancePath(8, (0, 0, 0, 1, 2, 2, 1, 1, 0))
    assert len(staircase_class(p)) == 4


def test_criterion_07_rectangle_black_cell_counts():
    assert black_dots_in_rectangle(2, 6, 8) == 6
    assert black_dots_in_rectangle(3, 3, 8) == 5
    # full agreement with the direct cell count for every fitting rectangle
    for n in range(2, 13):
        for a in range(1, n):
            for b in range(1, n - a + 1):
                direct = splitting_value(EmbeddedPartition(n, (b,) * a))
                assert black_dots_in_rectangle(a, b, n) == direct


def test_criterion_08_distance_bounds():
    assert flag_distance_bounds(8, 4, True, 2) == (4, 14)
    assert flag_distance_bounds(8, 3, True, 1) == (1, 12)
    assert flag_distance_bounds(8, 2, False) == (0, 10)


def test_criterion_09_path_splitting_bijection():
    """#paths of distance d == #splittings of D^n - d, dual enumerations."""
    start = time.perf_counter()
    for n in range(2, 9):
        dn = max_distance(n)
        paths_by_d = Counter(path_distance(p) for p in enumerate_paths(n))
        splittings_by_u: dict[int, set] = {}
        for part in enumerate_embedded_partitions(n):
            u = splitting_value(part)
            splittings_by_u.setdefault(u, set()).add(
                underlying_distribution(part))
        for d in range(dn + 1):
            assert paths_by_d.get(d, 0) == len(splittings_by_u.get(dn - d, ()))
    assert time.perf_counter() - start < 60.0


def test_criterion_10_random_code_theorem_harness():
    """No violations of the separability, rectangle<->projected, bounds and
    optimum-distance statements over 1000 random codes per (n, q)."""
    start = time.perf_counter()
    rng = random.Random(987654321)
    for n in range(4, 8):
        for q in (2, 3):
            for _ in range(1000):
                c = random_full_flag_code(q, n, rng.randint(2, 3), rng)
                # analyze() raises ConsistencyError on any theorem violation
                report = analyze(c)
                dbar = report.codistance

                for i in range(1, n):
                    card, di = report.projected[i]
                    # rectangle -> projected parameters
                    eq, ddi = rectangle_to_projected(c, i)
                    assert eq == (card == report.size)
                    assert ddi == di
                    # bounds containment
                    lo, hi = flag_distance_bounds(
                        n, i, eq, di if eq else None)
                    assert lo <= report.d_f <= hi

                # separability
                for i in range(1, n // 2 + 1):
                    if check_separability(dbar, n, i):
                        for j in range(i, n - i + 1):
                            assert report.projected[j][0] == report.size

                # three-way optimum equivalence
                ok, conds = is_optimum_distance(c)
                assert ok == (dbar == 0)
                assert set(conds.values()) == {ok}
    assert time.perf_counter() - start < 300.0


def test_criterion_11_realize_every_path():
    for n in range(2, 8):
        for p in enumerate_paths(n):
            f, g = realize_path(p, 2)
            assert path_from_flag_pair(f, g) == p
