"""The packed counting DPs against the list DPs they replaced.

``count_paths_by_distance`` and ``counting._count_by_value`` keep each
polynomial as one int with a fixed-width digit per power.  The references
below keep it as a list and add the lists entry by entry, with the same
recurrences; a digit that carried into its neighbour, or a width too small
for the largest count, would show as a mismatch somewhere in the range.
"""

from operator import add

import pytest

from flagcomb import counting
from flagcomb.counting import (count_partitions_by_value,
                               count_paths_by_distance,
                               count_splittings_by_value, max_distance)

SIZES = [*range(2, 31), 40, 50, 60]


def _paths_by_distance_lists(n):
    """Paths of each distance by a walk over (δ_i, running sum), one list
    per δ_i indexed by the sum."""
    dn = max_distance(n)
    by_delta = [[1] + [0] * dn]                # i = 0: δ_0 = 0, sum 0
    for i in range(1, n + 1):
        prev, by_delta = by_delta, []
        for d in range(min(i, n - i) + 1):     # from δ_{i-1} in d-1, d, d+1
            sums = list(map(sum, zip(*prev[max(0, d - 1):d + 2])))
            by_delta.append([0] * d + sums[:dn + 1 - d])
    return by_delta[0]


def _by_value_lists(n, distinct):
    """Partitions (or distinct splittings) of FF(n) by value, row by row
    with state (last part, value), one list per last part."""
    dn = max_distance(n)
    zero = [0] * (dn + 1)
    out = [1] + zero[1:]                    # the null partition
    by_last = {n - 1: out}                  # row 1 bounds only by n - 1
    for r in range(1, n):
        odd = (n + r) % 2
        run, row = by_last.get(n - r + 1, zero), {}
        for v in range(n - r, 0, -1):
            if v in by_last:
                run = list(map(add, run, by_last[v]))
            c = (v + odd) // 2
            src = (by_last.get(v, zero) if distinct and (v + odd) % 2 == 0
                   and v < n - r else run)
            row[v] = [0] * c + src[:dn + 1 - c]
            if c or not distinct:
                out = list(map(add, out, row[v]))
        by_last = row
    return out


@pytest.mark.parametrize("n", SIZES)
def test_packed_dps_equal_the_list_dps(n):
    assert count_paths_by_distance(n) == _paths_by_distance_lists(n)
    assert count_partitions_by_value(n) == _by_value_lists(n, False)
    assert count_splittings_by_value(n) == _by_value_lists(n, True)


@pytest.mark.parametrize("count", [count_paths_by_distance,
                                   count_partitions_by_value])
def test_a_term_past_dn_raises(count, monkeypatch):
    """The unpacking reads exactly D^n + 1 digits, so a polynomial with a
    nonzero term past them raises rather than being cut off."""
    monkeypatch.setattr(counting, "max_distance", lambda n: n * n // 4 - 1)
    with pytest.raises(OverflowError):
        count(8)
