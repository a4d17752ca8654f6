"""The Ferrers frame FF(n), embedded partitions, staircases and splittings.

Rotating the enriched distance support by -45 degrees turns it into the
staircase Ferrers diagram (n-1, n-2, ..., 1), the *frame* FF(n), whose
cells are 2-colored.  Cell coordinates: row i in [1, n-1] counted from the
top, position j in [1, n-i] counted from the right (the diagrams are
right-justified); a cell is black iff n + i + j is even.

Internally a staircase path lives on the integer grid of the rotated
support: the dots of row i sit at height v = n + 1 - i, the frame's corner
column is u = 0, and a dot (u, v) is black iff u + v is even.  The crossed
dots (zero-distance points before rotation) line the left diagonal edge at
u = -v and u = -v + 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Optional, Sequence

from . import config
from .counting import max_distance
from .errors import (CellOutsideFrame, ConsistencyError, FrameMismatch,
                     NotAPartition, NotEmbedded, check_int)
from .support_paths import DistancePath, enumerate_paths, path_distance

BLACK = "black"
RED = "red"


def cell_color(n: int, i: int, j: int) -> str:
    """Color of the frame cell in row i, position j from the right."""
    check_int("n", n, error=CellOutsideFrame)
    check_int("i", i, 1, n - 1, CellOutsideFrame)
    check_int("j", j, 1, n - i, CellOutsideFrame)
    return BLACK if (n + i + j) % 2 == 0 else RED


def is_embedded(parts: Sequence[int], n: int) -> bool:
    """Does the partition fit inside FF(n)?  (λ_i <= n - i, m <= n-1)."""
    check_int("n", n, error=NotAPartition)
    prev = None
    for p in parts:
        if not isinstance(p, int) or p <= 0:
            raise NotAPartition(f"part {p!r} is not a positive integer")
        if prev is not None and p > prev:
            raise NotAPartition(f"parts increase: {tuple(parts)}")
        prev = p
    if len(parts) > n - 1:
        return False
    return all(p <= n - i for i, p in enumerate(parts, start=1))


@dataclass(frozen=True)
class EmbeddedPartition:
    """A partition fitting in FF(n); parts=() is the null partition."""

    n: int
    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not is_embedded(self.parts, self.n):
            raise NotEmbedded(f"{self.parts} does not fit in FF({self.n})")
        object.__setattr__(self, "parts", tuple(map(int, self.parts)))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def is_null(self) -> bool:
        return not self.parts


def _embedded(n: int, parts: tuple[int, ...]) -> EmbeddedPartition:
    """EmbeddedPartition(n, parts) for parts already shown embedded."""
    p = object.__new__(EmbeddedPartition)
    p.__dict__.update(n=n, parts=parts)
    return p


def black_cells(p: EmbeddedPartition) -> frozenset[tuple[int, int]]:
    """The set of black frame cells covered by the subdiagram of p."""
    n = p.n
    return frozenset((i, j)
                     for i, lam in enumerate(p.parts, start=1)
                     for j in range(1, lam + 1)
                     if (n + i + j) % 2 == 0)


@dataclass(frozen=True, eq=False)
class UnderlyingDistribution:
    """Per-row black-cell counts of a subdiagram.

    Not necessarily a partition.  Two distributions are the same splitting
    iff they agree after stripping trailing zeros, so equality and hashing
    use the stripped form.
    """

    n: int
    counts: tuple[int, ...]
    stripped: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        c, end = self.counts, len(self.counts)
        while end and c[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "stripped", tuple(c[:end]))

    def __eq__(self, other):
        return (isinstance(other, UnderlyingDistribution)
                and self.n == other.n and self.stripped == other.stripped)

    def __hash__(self):
        return hash(self.stripped)


def _row_black_count(n: int, i: int, lam: int) -> int:
    # positions j in [1, lam] with n+i+j even: ceil for n+i odd, floor else
    return (lam + (n + i) % 2) // 2


def underlying_distribution(p: EmbeddedPartition) -> UnderlyingDistribution:
    """Black cells per row: ceil(λ_i/2) and floor(λ_i/2) alternating,
    starting with ceil for n even and floor for n odd."""
    counts = tuple(_row_black_count(p.n, i, lam)
                   for i, lam in enumerate(p.parts, start=1))
    return UnderlyingDistribution(p.n, counts)


def splitting_value(p: EmbeddedPartition) -> int:
    """u_λ: the total number of black cells of the subdiagram."""
    return sum(underlying_distribution(p).counts)


# ---------------------------------------------------------------------------
# Staircase paths.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StaircasePath:
    """A down-right lattice path through the frame.

    Stored by its row profile: profile[i-1] is the number of frame cells in
    row i strictly to the right of the path (the silhouette's subdiagram).
    """

    n: int
    profile: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "profile", tuple(self.profile))
        n = check_int("n", self.n)
        if len(self.profile) != n - 1:
            raise ValueError(f"profile must have n - 1 rows, got {self.profile}")
        prev = n - 1
        for i, lam in enumerate(self.profile, start=1):
            if not (isinstance(lam, int) and 0 <= lam <= min(prev, n - i)):
                raise ValueError(f"profile row {i} out of range: {self.profile}")
            prev = lam
        object.__setattr__(self, "profile", tuple(map(int, self.profile)))


def trace_staircase(s: StaircasePath) -> list[tuple[int, int]]:
    """The 2n+1 dots (u, v) visited, from (-n, n) down to (0, 0).

    A dot is black iff u + v is even; the trace always holds n+1 black and
    n red dots (consecutive dots alternate color), which is re-checked.
    """
    n = s.n
    # exit column per height: -profile[i-1] at v = n+1-i, and 0 at v <= 1
    dots = [(-n, n)]
    u = -n
    for v in range(n, -1, -1):
        i = n + 1 - v
        exit_u = -s.profile[i - 1] if 1 <= i <= n - 1 else 0
        while u < exit_u:
            u += 1
            dots.append((u, v))
        if v > 0:
            dots.append((u, v - 1))
    if len(dots) != 2 * n + 1:
        raise ConsistencyError("staircase trace has the wrong length")
    blacks = sum(1 for u, v in dots if (u + v) % 2 == 0)
    if blacks != n + 1:
        raise ConsistencyError("staircase trace color counts are off")
    return dots


def staircase_of_partition(p: EmbeddedPartition) -> StaircasePath:
    """Zero-pad the parts to length n-1."""
    pad = p.parts + (0,) * (p.n - 1 - len(p.parts))
    return StaircasePath(p.n, pad)


def partition_of_staircase(s: StaircasePath) -> EmbeddedPartition:
    """Strip the zero rows, the last ones as the profile does not increase.
    StaircasePath checked 0 <= λ_i <= min(λ_{i-1}, n - i) on its n - 1 int
    rows, so the rest is embedded by construction: is_embedded is not run."""
    return _embedded(s.n, s.profile[:s.n - 1 - s.profile.count(0)])


def skeleton_of_staircase(s: StaircasePath) -> DistancePath:
    """Remove the red dots: the black dots of the trace, read back in
    support coordinates, are the vertices of a distance path."""
    n = s.n
    deltas = [None] * (n + 1)
    for u, v in trace_staircase(s):
        if (u + v) % 2 == 0:
            i = n + (u - v) // 2
            deltas[i] = (u + v) // 2
    if any(d is None for d in deltas):
        raise ConsistencyError("skeleton misses a dimension")
    return DistancePath(n, tuple(deltas))


def staircase_class(p: DistancePath) -> list[StaircasePath]:
    """Σ(Γ): every staircase whose skeleton is p."""
    return [StaircasePath(p.n, s) for s in product(*_class_rows(p))]


def _class_rows(p: DistancePath) -> list[tuple[int, ...]]:
    """The options of each profile row over the staircases of Σ(Γ).

    Between consecutive path vertices the intermediate red dot is forced,
    except on positive-height plateaus where the staircase may turn
    right-down or down-right — hence exactly 2^(positive plateaus) members.

    Row i of a profile is min(-u, v - 1) for the rightmost dot u at height
    v = n + 1 - i.  A red dot (u, v) or (u, v - 1) after the black dot (u, v)
    sets a rightmost dot only on a descent (the black dot next is (u, v - 2))
    and on a positive plateau's right-down turn: after an ascent the next
    black dot (u + 2, v) is further right, after a down-right turn the next
    black dot (u + 1, v - 1) is, and on a plateau with δ = 0 the bound
    v - 1 = -(u + 1) hides the turn.  So one base profile comes from the black dots and the
    descents, and each positive plateau only offers its own row the value
    -(u + 1).  Distinct plateaus sit at distinct heights, so the class is
    the product of the rows' options, right-down first.
    """
    n, d = p.n, p.deltas
    # the dots come right and down, so the last one at a height is rightmost
    top: dict[int, int] = {}            # height v -> rightmost dot u
    turns: list[tuple[int, int]] = []   # right-down dots of positive plateaus
    for i in range(n + 1):
        u, v = i + d[i] - n, n + d[i] - i
        top[v] = u
        if i == n:
            break
        if d[i + 1] < d[i]:              # descent: forced down-right
            top[v - 1] = u
        elif d[i + 1] == d[i] > 0:       # positive plateau: two resolutions
            turns.append((u + 1, v))
    rows = [(min(-top[n + 1 - i], n - i),) for i in range(1, n)]
    for u, v in turns:
        rows[n - v] = (-u,) + rows[n - v]
    return rows


# ---------------------------------------------------------------------------
# Distance-equivalence and splittings.
# ---------------------------------------------------------------------------

def _criterion_equivalent(a: EmbeddedPartition, b: EmbeddedPartition) -> bool:
    lam, mu = a.parts, b.parts
    if len(lam) > len(mu):
        lam, mu = mu, lam
    m, mm = len(lam), len(mu)
    n = a.n
    if not (mm == m or (mm == m + 1 and (m + n) % 2 == 1 and mu[-1] == 1)):
        return False
    # row by row, the same number of black cells
    return all(_row_black_count(n, i, x) == _row_black_count(n, i, y)
               for i, (x, y) in enumerate(zip(lam, mu), start=1))


def distance_equivalent(a: EmbeddedPartition, b: EmbeddedPartition) -> bool:
    """Same underlying black diagram?

    Decided by the arithmetic criterion on the parts and cross-checked
    against direct black-cell-set comparison; a disagreement would falsify
    one of the two and raises ConsistencyError.
    """
    if a.n != b.n:
        raise FrameMismatch(f"FF({a.n}) vs FF({b.n})")
    by_criterion = _criterion_equivalent(a, b)
    by_cells = black_cells(a) == black_cells(b)
    if by_criterion != by_cells:
        raise ConsistencyError(
            f"equivalence criterion disagrees with cell sets for "
            f"{a.parts} / {b.parts} in FF({a.n})")
    return by_criterion


def _walk(n: int, bound: Optional[int]
          ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """(parts, underlying distribution counts, their sum) for the null
    partition and each embedded partition of FF(n) of splitting value at
    most bound (any if None), lexicographic.  Each node grows from its
    parent by one row, in the range is_embedded leaves, and none grows past
    bound, since values only grow.  The caller checks n and the cap."""
    stack = [((), (), 0)]
    while stack:
        parts, counts, value = node = stack.pop()
        yield node
        row = len(parts) + 1
        odd = (n + row) % 2     # _row_black_count(n, row, v) inlined
        # v = 1 goes on the stack last, so the walk is lexicographic
        for v in range(min(parts[-1], n - row) if parts else n - 1, 0, -1):
            c = (v + odd) // 2
            if bound is None or value + c <= bound:
                stack.append((parts + (v,), counts + (c,), value + c))


def iter_partitions(n: int, splitting_filter: Optional[int] = None, *,
                    max_n: Optional[int] = None
                    ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """(parts, underlying distribution counts, splitting value) for the
    partitions of enumerate_embedded_partitions, in its order; the walk
    prunes past splitting_filter=u and the nodes below u are dropped here."""
    u = splitting_filter
    if u is not None:
        check_int("splitting_filter", u)
    config.check_n(n, max_n)    # at the call, not at the walk's first step
    return (node for node in _walk(n, u) if u is None or node[2] == u)


def enumerate_embedded_partitions(
        n: int, splitting_filter: Optional[int] = None, *,
        max_n: Optional[int] = None) -> list[EmbeddedPartition]:
    """All embedded partitions of FF(n) (null included), lexicographic;
    with splitting_filter=u, only those of splitting value u."""
    return [_embedded(n, parts) for parts, _, _
            in iter_partitions(n, splitting_filter, max_n=max_n)]


def splittings_by_value(n: int, *, max_n: Optional[int] = None
                        ) -> dict[int, frozenset[UnderlyingDistribution]]:
    """The distinct splittings of FF(n) by value u, in one walk: each is
    the distribution of the first partition that has it."""
    config.check_n(n, max_n)
    groups = {u: set() for u in range(max_distance(n) + 1)}
    for _, counts, value in _walk(n, None):
        # a last count 0 repeats the splitting of the parent, which came
        # first; the counts of every other node are already stripped
        if not counts or counts[-1]:
            groups[value].add(counts)
    return {u: frozenset(UnderlyingDistribution(n, c) for c in g)
            for u, g in groups.items()}


def splittings_of_codistance(n: int, u: int) -> frozenset[UnderlyingDistribution]:
    """The distinct splittings of the value u in FF(n).

    Distinct means distinct underlying black diagrams: distributions are
    identified after stripping trailing zeros.
    """
    check_int("u", u, 0, max_distance(n))
    return splittings_by_value(n)[u]


def bijection_table(n: int, *, max_n: Optional[int] = None
                    ) -> list[tuple[int, int, int]]:
    """(d, #paths of distance d, #splittings of D^n - d) for d in [0, D^n].

    The two counts come from independent enumerations, the distance paths
    on S(n) and the embedded partitions of FF(n); the paper's bijection
    says that they agree row by row.
    """
    dn = max_distance(n)
    splittings = splittings_by_value(n, max_n=max_n)
    paths = Counter(path_distance(p) for p in enumerate_paths(n, max_n=max_n))
    return [(d, paths[d], len(splittings[dn - d])) for d in range(dn + 1)]
