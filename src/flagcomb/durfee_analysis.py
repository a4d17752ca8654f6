"""Durfee rectangles of flag codes and the projected-parameter theorems.

For a full flag code C, every distance path of Γ(C) expands (through its
staircase class) into Ferrers subdiagrams of FF(n); their maximal corner
rectangles whose column count exceeds the row count by k = n - 2i encode,
dimension by dimension, whether flags of C share i-th subspaces and what
the minimum injection distance of the projected code C_i is.  Everything
derived here from rectangles is cross-checked against directly computed
projected parameters — a mismatch is a hard ConsistencyError, never a
warning.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .errors import (ConsistencyError, IndexOutOfRange, NotFullFlag,
                     OffsetOutOfRange, RectangleOutsideFrame, SingletonCode)
from .ferrers import EmbeddedPartition, partition_of_staircase, staircase_class
from .flags import (FlagCode, codistance, max_distance, min_distance,
                    projected_code, projected_distance)
from .support_paths import DistancePath, paths_of_code


@dataclass(frozen=True)
class DurfeeRectangle:
    """The maximal corner rectangle with cols = rows + k; rows=0 is the
    empty rectangle."""

    k: int
    rows: int

    @property
    def cols(self) -> int:
        return self.rows + self.k if self.rows else 0


def durfee_rectangle(p: EmbeddedPartition, k: int) -> DurfeeRectangle:
    """Largest r with λ_r >= r + k (0 when no row qualifies)."""
    if not 0 <= k <= p.n - 2:
        raise OffsetOutOfRange(f"k={k} not in [0, {p.n - 2}]")
    r = 0
    for t, lam in enumerate(p.parts, start=1):
        if lam >= t + k:
            r = t
    return DurfeeRectangle(k, r)


def durfee_rectangle_transposed(p: EmbeddedPartition, k: int) -> int:
    """Columns c of the largest corner rectangle with rows = cols + k.

    Used for projected dimensions above n/2 (k = 2i - n there): a c x (c+k)
    rectangle fits iff λ_{c+k} >= c.
    """
    if not 0 <= k <= p.n - 2:
        raise OffsetOutOfRange(f"k={k} not in [0, {p.n - 2}]")
    c = 0
    for t, lam in enumerate(p.parts, start=1):
        if t - k >= 1 and lam >= t - k:
            c = t - k
    return c


def black_dots_in_rectangle(a: int, b: int, n: int) -> int:
    """Black cells of a corner-anchored a x b rectangle in FF(n):
    ceil(ab/2) for n even, floor(ab/2) for n odd."""
    if not (1 <= a <= n - 1 and 1 <= b <= n - a):
        raise RectangleOutsideFrame(f"{a}x{b} does not fit in FF({n})")
    if n % 2 == 0:
        return (a * b + 1) // 2
    return a * b // 2


def _subdiagrams(gamma: frozenset[DistancePath]) -> frozenset[EmbeddedPartition]:
    """F(C) from Γ(C): the partitions of every staircase over every path."""
    return frozenset(partition_of_staircase(s)
                     for p in gamma for s in staircase_class(p))


def ferrers_subdiagrams_of_code(c: FlagCode) -> frozenset[EmbeddedPartition]:
    """F(C): the partitions of every staircase over every path of Γ(C)."""
    return _subdiagrams(paths_of_code(c))


def _rect_sizes(p: EmbeddedPartition) -> tuple[int, ...]:
    """The rectangle size of p at every dimension i = 1..n-1, in one pass.

    With k = 2i - n it is the largest t with t - λ_t <= k for i <= n/2 (as
    durfee_rectangle(p, -k) reads it) and max(0, T - k) for the largest such
    T above n/2 (as durfee_rectangle_transposed(p, k) reads it).  t - λ_t
    strictly increases with t, so the largest such t is a count: a bisection.
    """
    n = p.n
    offsets = [t - lam for t, lam in enumerate(p.parts, start=1)]
    return tuple(bisect_right(offsets, k) if k <= 0
                 else max(0, bisect_right(offsets, k) - k)
                 for k in range(2 - n, n - 1, 2))


def _rect_table(subdiagrams: frozenset[EmbeddedPartition]
                ) -> dict[int, tuple[int, ...]]:
    """Dimension i -> the distinct rectangle sizes over F(C), descending.

    Row counts of (n-2i)-rectangles for i <= n/2; column counts of
    transposed (2i-n)-rectangles for higher dimensions.  Empty for an
    empty F(C).
    """
    vectors = {_rect_sizes(p) for p in subdiagrams}
    return {i: tuple(sorted(set(sizes), reverse=True))
            for i, sizes in enumerate(zip(*vectors), start=1)}


def _durfee_sets(table: dict[int, tuple[int, ...]],
                 n: int) -> dict[int, tuple[int, ...]]:
    """D_k, k ascending, from the rectangle table: the sizes at i = (n - k)/2."""
    if not table:
        return {}
    out = {}
    for i in range(n // 2, 0, -1):
        rows = table[i]
        if rows[0] > i:
            raise ConsistencyError(f"rectangle with {rows[0]} rows exceeds "
                                   f"the bound for k={n - 2 * i}")
        out[n - 2 * i] = rows
    return out


def durfee_sets_of_code(c: FlagCode) -> dict[int, tuple[int, ...]]:
    """D_k(C) for every k with k ≡ n (mod 2), 0 <= k <= n-2.

    Values are the distinct rectangle row counts, sorted descending.  A
    singleton code has no flag pairs and yields an empty map.
    """
    return _durfee_sets(_rect_table(ferrers_subdiagrams_of_code(c)), c.n)


def check_separability(dbar: int, n: int, i: int) -> bool:
    """Hypothesis of the separability theorem: d̄ < ceil(i(n-i)/2).

    When true, |C| = |C_i| = ... = |C_{n-i}| is guaranteed.
    """
    if not 1 <= i <= n // 2:
        raise IndexOutOfRange(f"i={i} not in [1, {n // 2}]")
    return dbar < (i * (n - i) + 1) // 2


def rectangle_to_projected(c: FlagCode, i: int) -> tuple[bool, int]:
    """(|C_i| = |C|?, d_I(C_i)) derived purely from Durfee rectangles.

    With r_1 >= r_2 the largest rectangle sizes at dimension i and
    i* = min(i, n-i):  r_1 < i* means no two flags share F_i, so
    |C_i| = |C| and d_I(C_i) = i* - r_1; r_1 = i* alone means C_i is a
    singleton; r_1 = i* with a second value gives d_I(C_i) = i* - r_2.
    The derivation is cross-checked against the directly computed
    parameters before returning.
    """
    if not c.is_full:
        raise NotFullFlag("rectangle analysis needs a full code")
    if len(c) < 2:
        raise SingletonCode("need at least two flags")
    n = c.n
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"i={i} not in [1, {n - 1}]")
    vals = _rect_table(ferrers_subdiagrams_of_code(c))[i]
    direct = (len(projected_code(c, i)), projected_distance(c, i))
    return _checked_projected(vals, n, i, len(c), direct)


def _checked_projected(vals: tuple[int, ...], n: int, i: int, size: int,
                       direct: tuple[int, int]) -> tuple[bool, int]:
    """rectangle_to_projected from the rectangle sizes *vals*; the direct
    (|C_i|, d_I(C_i)) must agree, else ConsistencyError."""
    i_eff = min(i, n - i)
    if vals[0] < i_eff:
        derived = (True, i_eff - vals[0])
    elif len(vals) == 1:
        # every pair shares the i-th subspace: C_i is a singleton
        derived = (size == 1, 0)
    else:
        derived = (False, i_eff - vals[1])
    if derived != (direct[0] == size, direct[1]):
        raise ConsistencyError(
            f"dimension {i}: rectangles {vals} give {derived}, "
            f"direct computation gives {direct}")
    return derived


def bound_from_codistance(dbar: int, n: int, i: int, r: int) -> bool:
    """Hypothesis d̄ < ceil(r(r+n-2i)/2); when true, |C_i| = |C| and
    d_I(C_i) > i - r."""
    if not 1 <= i <= n // 2:
        raise IndexOutOfRange(f"i={i} not in [1, {n // 2}]")
    if not 0 <= r <= i:
        raise IndexOutOfRange(f"r={r} not in [0, {i}]")
    return dbar < (r * (r + n - 2 * i) + 1) // 2


def flag_distance_bounds(n: int, i: int, cardinality_equal: bool,
                         d_i: Optional[int] = None) -> tuple[int, int]:
    """The admissible interval for d_f(C) given |C_i| vs |C| and d_I(C_i).

    Equal cardinalities: [d_i^2, D^n - ceil((i-d_i)(n-i-d_i)/2)];
    otherwise: [0, D^n - ceil(i(n-i)/2)].  Symmetric in i <-> n-i.
    """
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"i={i} not in [1, {n - 1}]")
    dn = max_distance(n)
    if not cardinality_equal:
        return 0, dn - ((i * (n - i) + 1) // 2)
    if d_i is None:
        raise ValueError("d_i is required when cardinalities are equal")
    if not 1 <= d_i <= min(i, n - i):
        raise IndexOutOfRange(f"d_i={d_i} not in [1, {min(i, n - i)}]")
    rest = (i - d_i) * (n - i - d_i)
    return d_i * d_i, dn - ((rest + 1) // 2)


def is_optimum_distance(c: FlagCode) -> tuple[bool, dict[str, bool]]:
    """Does C attain d_f(C) = D^n?

    The three equivalent characterizations — zero codistance, Γ(C) being
    exactly the maximum path, and F(C) = {null} (n even) or {null, (1)}
    (n odd) — are each evaluated; disagreement raises ConsistencyError.
    """
    if not c.is_full:
        raise NotFullFlag("optimum-distance check needs a full code")
    if len(c) < 2:
        raise SingletonCode("need at least two flags")
    gamma = paths_of_code(c)
    return _optimum_conditions(codistance(c), gamma, _subdiagrams(gamma), c.n)


def _optimum_conditions(dbar: int, gamma: frozenset[DistancePath],
                        subdiagrams: frozenset[EmbeddedPartition],
                        n: int) -> tuple[bool, dict[str, bool]]:
    conds = {
        "codistance_zero": dbar == 0,
        "unique_max_path": {p.deltas for p in gamma}
                           == {tuple(min(i, n - i) for i in range(n + 1))},
        "ferrers_set": subdiagrams
                       == ({EmbeddedPartition(n, ())} if n % 2 == 0 else
                           {EmbeddedPartition(n, ()), EmbeddedPartition(n, (1,))}),
    }
    votes = set(conds.values())
    if len(votes) > 1:
        raise ConsistencyError(f"optimum-distance conditions disagree: {conds}")
    return votes.pop(), conds


@dataclass
class CodeAnalysis:
    """Every direct and theorem-derived parameter of a full flag code."""

    q: int
    n: int
    size: int
    d_f: int
    codistance: int
    projected: dict[int, tuple[int, int]]        # i -> (|C_i|, d_I(C_i))
    derived: dict[int, tuple[bool, int]]         # i -> (|C_i|=|C|?, d_I)
    durfee_sets: dict[int, tuple[int, ...]]      # k -> descending r values
    separability: dict[int, bool]                # i -> hypothesis holds
    bounds: dict[int, tuple[int, int]]           # i -> d_f interval
    optimum: Optional[bool]
    no_pairs: bool
    consistent: bool = True


def analyze(c: FlagCode) -> CodeAnalysis:
    """Full §-by-§ analysis with hard cross-checking.

    Any disagreement between a theorem-derived value and the directly
    computed one aborts with ConsistencyError.
    """
    if not c.is_full:
        raise NotFullFlag("analyze needs a full flag code")
    n, size = c.n, len(c)
    d_f = min_distance(c)
    dbar = codistance(c)

    projected = {}
    for i in range(1, n):
        projected[i] = (len(projected_code(c, i)), projected_distance(c, i))

    if size < 2:
        return CodeAnalysis(c.q, n, size, d_f, dbar, projected, {}, {},
                            {}, {}, None, True)

    gamma = paths_of_code(c)
    subdiagrams = _subdiagrams(gamma)
    table = _rect_table(subdiagrams)
    durfee = _durfee_sets(table, n)

    derived = {}
    for i in range(1, n):
        derived[i] = _checked_projected(table[i], n, i, size, projected[i])

    separability = {}
    for i in range(1, n // 2 + 1):
        separability[i] = check_separability(dbar, n, i)
        if separability[i]:
            for j in range(i, n - i + 1):
                if projected[j][0] != size:
                    raise ConsistencyError(
                        f"separability promised |C_{j}| = |C| = {size}, "
                        f"got {projected[j][0]}")

    bounds = {}
    for i in range(1, n):
        card_eq = projected[i][0] == size
        lo, hi = flag_distance_bounds(n, i, card_eq,
                                      projected[i][1] if card_eq else None)
        bounds[i] = (lo, hi)
        if not lo <= d_f <= hi:
            raise ConsistencyError(
                f"d_f = {d_f} outside [{lo}, {hi}] at dimension {i}")

    optimum, _ = _optimum_conditions(dbar, gamma, subdiagrams, n)

    return CodeAnalysis(c.q, n, size, d_f, dbar, projected, derived, durfee,
                        separability, bounds, optimum, False)
