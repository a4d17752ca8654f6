"""D^n and the counting DPs: distance paths on S(n) by distance, and the
embedded partitions of FF(n) and their distinct splittings by value.

This module imports no other flagcomb module than errors, so that
``flagcomb paths``, ``partitions`` and ``bijection``, which run only these,
load nothing of the flags, the linear algebra or the enumerators.
"""

from __future__ import annotations

from .errors import check_int


def max_distance(n: int) -> int:
    """D^n = floor(n^2 / 4), the maximum full-flag distance."""
    check_int("n", n, 2)
    return n * n // 4


def count_paths_by_distance(n: int) -> list[int]:
    """The number of distance paths on S(n) of each distance d in [0, D^n],
    by a walk over i = 1..n with state (δ_i, running sum): for each δ_i, the
    counts of the prefixes by sum, one int with a w-byte digit per sum
    (Kronecker substitution).  A descent to 0 completes each prefix to a
    distinct path, so every digit is at most Motzkin(n) < 3^n < 2^(8w),
    w = n // 4 + 1, and none carries.  δ_i <= min(i, n-i) bounds every sum
    by D^n, and to_bytes raises past it.  Shares nothing with iter_paths.
    """
    dn, w = max_distance(n), n // 4 + 1
    by_delta = [1]                             # i = 0: δ_0 = 0, sum 0
    for i in range(1, n + 1):                  # from δ_{i-1} in d-1, d, d+1
        by_delta = [sum(by_delta[max(0, d - 1):d + 2]) << 8 * w * d
                    for d in range(min(i, n - i) + 1)]
    b = by_delta[0].to_bytes((dn + 1) * w, "little")
    return [int.from_bytes(b[k:k + w], "little") for k in range(0, len(b), w)]


def _count_by_value(n: int, distinct: bool) -> list[int]:
    """Counts by value u in [0, D^n] of the embedded partitions of FF(n),
    or with distinct=True of its distinct splittings; shares nothing with
    _walk.  Row r maps each last part v to the counts by value of the
    prefixes ending in v, one int with a w-byte digit per value (Kronecker
    substitution).  A part v <= min(last, n - r) adds ⌊(v + (n + r) mod 2)/2⌋
    black cells, a shift by that many digits; a running sum over last >= v
    gives each row in O(n) int sums.  No digit carries: it counts partitions
    in FF(n), at most Catalan(n) < 4^n < 2^(8w) for w = n // 4 + 1.  Values
    end at D^n, the whole frame's, and to_bytes raises on a term past it.

    For splittings, v is the greedy part: the largest λ <= min(λ_prev, n - r)
    with the row's count c.  Any partition with the same counts stays at or
    below it row by row, so each count vector has one greedy partition.  The
    largest part with count c is 2c + 1 - (n + r) mod 2; a v of the other
    parity (the least part with its count) is greedy only when the bound is
    v: λ_prev = v, or v = n - r.  A count 0 (v = 1, n + r even) is not
    counted, so each vector counts once, at its last nonzero count; a count
    0 with λ = 0 ends the vector, as the walk's end does.
    """
    dn, w = max_distance(n), n // 4 + 1
    out, by_last = 1, {n - 1: 1}    # the null partition; row 1 bounds by n - 1
    for r in range(1, n):
        odd = (n + r) % 2
        # run: the sum over last >= v, where last <= n - r + 1
        run, row = by_last.get(n - r + 1, 0), {}
        for v in range(n - r, 0, -1):
            run += by_last.get(v, 0)
            c = (v + odd) // 2
            src = (by_last.get(v, 0) if distinct and (v + odd) % 2 == 0
                   and v < n - r else run)
            row[v] = src << 8 * w * c
            if c or not distinct:
                out += row[v]
        by_last = row
    b = out.to_bytes((dn + 1) * w, "little")
    return [int.from_bytes(b[k:k + w], "little") for k in range(0, len(b), w)]


def count_partitions_by_value(n: int) -> list[int]:
    """The number of embedded partitions of FF(n) of each splitting value."""
    return _count_by_value(n, False)


def count_splittings_by_value(n: int) -> list[int]:
    """The number of distinct splittings of FF(n) of each value."""
    return _count_by_value(n, True)
