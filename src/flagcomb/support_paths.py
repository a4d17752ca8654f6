"""The distance support S(n), distance paths, Pick areas and realization.

A distance path records, for a pair of full flags, the injection distance
at every dimension: the delta vector (δ_0, ..., δ_n) with δ_0 = δ_n = 0.
Consecutive deltas differ by at most 1 (the trident rule) and each δ_i is
bounded by min(i, n-i).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import config
from .counting import max_distance
from .errors import (IndexOutOfRange, InvalidPath, NotFullFlag,
                     RealizationNotFound, check_int)
from .flags import (Flag, FlagCode, TypeVector, flag_from_matrix,
                    pair_distance_profile, pair_pass)


def range_r(i: int, n: int) -> frozenset[int]:
    """R(i, n) = {0, ..., min(i, n-i)}: attainable distances in G_q(i, n)."""
    check_int("n", n, error=IndexOutOfRange)
    check_int("i", i, 0, n, IndexOutOfRange)
    return frozenset(range(min(i, n - i) + 1))


def first_violation(deltas: Sequence[int], n: int) -> Optional[tuple[int, str]]:
    """First index breaking a distance-path invariant, or None if valid."""
    if not isinstance(n, int):
        return (0, f"n={n!r} is not an integer")
    if not deltas:
        return (0, "a path needs at least one delta")
    if len(deltas) != n + 1:
        return (0, f"expected {n + 1} deltas, got {len(deltas)}")
    if deltas[0] != 0:
        return (0, "delta_0 must be 0")
    if deltas[n] != 0:
        return (n, "delta_n must be 0")
    for i, d in enumerate(deltas):
        if not isinstance(d, int):
            return (i, f"delta_{i}={d!r} is not an integer")
        if not 0 <= d <= min(i, n - i):
            return (i, f"delta_{i}={d} outside [0, {min(i, n - i)}]")
    for i in range(n):
        if abs(deltas[i + 1] - deltas[i]) > 1:
            return (i + 1, "consecutive deltas differ by more than 1")
    return None


def validate_path(deltas: Sequence[int], n: int) -> bool:
    return first_violation(deltas, n) is None


@dataclass(frozen=True)
class DistancePath:
    """A valid delta vector; invalid inputs raise InvalidPath."""

    n: int
    deltas: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(self.deltas))
        bad = first_violation(self.deltas, self.n)
        if bad is not None:
            raise InvalidPath(bad[1], index=bad[0])
        object.__setattr__(self, "deltas", tuple(map(int, self.deltas)))

    def reversed(self) -> "DistancePath":
        return DistancePath(self.n, tuple(reversed(self.deltas)))


def path_distance(p: DistancePath) -> int:
    return sum(p.deltas)


def path_codistance(p: DistancePath) -> int:
    return max_distance(p.n) - path_distance(p)


def plateau_count(p: DistancePath) -> tuple[int, int]:
    """(total plateaus, plateaus at positive height)."""
    total = positive = 0
    for a, b in zip(p.deltas, p.deltas[1:]):
        if a == b:
            total += 1
            if a > 0:
                positive += 1
    return total, positive


def pick_area(p: DistancePath) -> int:
    """Area under the path, polygon by polygon, via the shoelace formula.

    The path is cut at every zero-height vertex; each piece, closed along
    the horizontal axis, is a simple polygon whose shoelace area is an
    integer.  Degenerate pieces (consecutive zeros) contribute 0.  The sum
    equals path_distance(p) — that equality is a theorem, not a shortcut
    taken here.
    """
    deltas = p.deltas
    zeros = [i for i, d in enumerate(deltas) if d == 0]
    twice_area = 0
    for a, b in zip(zeros, zeros[1:]):
        if b == a + 1:
            continue
        # vertices (a,0), (a+1, d_{a+1}), ..., (b,0); closing edge lies on
        # the axis and contributes nothing.
        acc = 0
        for i in range(a, b):
            x1, y1 = i, deltas[i]
            x2, y2 = i + 1, deltas[i + 1]
            acc += x1 * y2 - x2 * y1
        twice_area += abs(acc)
    if twice_area % 2:
        raise InvalidPath("non-integer polygon area; path is corrupt")
    return twice_area // 2


def path_from_flag_pair(f: Flag, g: Flag) -> DistancePath:
    """The distance path of a pair of full flags.

    δ_i = d_I(F_i, F'_i) for 1 <= i <= n-1, with δ_0 = δ_n = 0 appended
    (extending by {0} and F_q^n does not change the flag distance).
    """
    if not (f.is_full and g.is_full):
        raise NotFullFlag("distance paths are defined for full flags")
    profile = pair_distance_profile(f, g)
    return DistancePath(f.n, (0, *profile, 0))


def enumerate_paths(n: int, distance_filter: Optional[int] = None, *,
                    max_n: Optional[int] = None) -> list[DistancePath]:
    """All distance paths on S(n) in lexicographic delta order.

    With distance_filter=d, only paths of distance d are returned.
    """
    return [p for p, _ in iter_paths(n, distance_filter, max_n=max_n)]


def iter_paths(n: int, distance_filter: Optional[int] = None, *,
               max_n: Optional[int] = None
               ) -> Iterator[tuple[DistancePath, int]]:
    """(p, path_distance(p)) for the paths of enumerate_paths, in its order.

    Each prefix grows by one delta in the range the trident rule and the
    bound min(i, n-i) leave, and the leaf checks the step to δ_n = 0; that
    is all of first_violation, so no path re-runs it.  No prefix grows past
    a distance filter, since the deltas are non-negative.
    """
    config.check_n(n, max_n)
    if distance_filter is not None:
        check_int("distance_filter", distance_filter)
    def paths() -> Iterator[tuple[DistancePath, int]]:    # checked above
        stack = [((0,), 0)]
        while stack:
            deltas, acc = stack.pop()
            i = len(deltas)
            if i == n:
                if deltas[-1] <= 1 and (distance_filter is None
                                        or acc == distance_filter):
                    p = object.__new__(DistancePath)    # checked: skip __post_init__
                    p.__dict__.update(n=n, deltas=deltas + (0,))
                    yield p, acc
                continue
            # the least delta goes on the stack last, so the walk is lexicographic
            for d in range(min(deltas[-1] + 1, i, n - i),
                           max(0, deltas[-1] - 1) - 1, -1):
                if distance_filter is None or acc + d <= distance_filter:
                    stack.append((deltas + (d,), acc + d))
    return paths()


def _find_permutation(deltas: Sequence[int], n: int) -> list[int]:
    """Lexicographically first permutation w with the intersection profile
    |{j <= i : w(j) <= i}| = i - δ_i for every i.

    After step k, a row j <= k is open if w(j) > k and a column v <= k is
    open if no row <= k takes it; there are δ_k of each.  Open rows can
    only take values > k, and open columns only go to rows > k.  Step k
    adds row k and column k, and the count grows by 1 - (δ_k - δ_{k-1}):

    - δ rises (grows by 0): both stay open;
    - δ falls (by 2): an open row takes k and row k takes an open column;
    - δ level, rows open (by 1): the earliest open row takes k and row k
      opens; w(k) = k, or row k taking a column, would leave that earlier
      row a value above k;
    - δ level at 0 (by 1): w(k) = k is the only choice.

    Each step gives the earliest undecided row the least value it can
    still take; the queues are FIFO, so earliest is least.  Every step
    leaves both queues at length δ_k, so on a valid path no pop fails and
    nothing is undone: w is built in O(n).
    """
    w = [0] * (n + 1)
    rows: deque[int] = deque()
    cols: deque[int] = deque()
    for k in range(1, n + 1):
        step = deltas[k] - deltas[k - 1]
        if step > 0:
            rows.append(k)
            cols.append(k)
        elif step < 0:
            w[rows.popleft()] = k
            w[k] = cols.popleft()
        elif rows:
            w[rows.popleft()] = k
            rows.append(k)
        else:
            w[k] = k
    return w[1:]


def realize_path(p: DistancePath, q: int) -> tuple[Flag, Flag]:
    """Two full coordinate flags whose distance path is exactly p.

    The first flag is the standard coordinate flag; the second uses basis
    order e_{w(1)}, ..., e_{w(n)} for the lex-first permutation w matching
    the intersection profile, built without search in O(n).  The result is
    checked by an independent round trip, path_from_flag_pair, before it
    is returned.
    """
    n = p.n
    w = _find_permutation(p.deltas, n)
    identity = [[1 if c == r else 0 for c in range(n)] for r in range(n)]
    permuted = [[1 if c == w[r] - 1 else 0 for c in range(n)] for r in range(n)]
    full = TypeVector.full(n)
    f = flag_from_matrix(q, n, full, identity)
    g = flag_from_matrix(q, n, full, permuted)
    if path_from_flag_pair(f, g) != p:
        raise RealizationNotFound(f"round-trip failed for {p.deltas}")
    return f, g


def paths_of_code(c: FlagCode) -> frozenset[DistancePath]:
    """Γ(C): the distance paths of all pairs of distinct flags, one
    DistancePath (so one validation) per path pair_pass counts, in order."""
    if not c.is_full:
        raise NotFullFlag("Γ(C) is defined for full flag codes")
    n = c.n
    return frozenset(DistancePath(n, (0, *path, 0)) for path in pair_pass(c)[0])
