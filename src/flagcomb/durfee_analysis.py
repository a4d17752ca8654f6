"""Durfee rectangles of flag codes and the projected-parameter theorems.

For a full flag code C, every distance path of Γ(C) expands (through its
staircase class) into Ferrers subdiagrams of FF(n); their maximal corner
rectangles whose column count exceeds the row count by k = n - 2i encode,
dimension by dimension, whether flags of C share i-th subspaces and what
the minimum injection distance of the projected code C_i is; the class law
reads their sizes off the paths.  Everything derived here from rectangles
is cross-checked against the projected parameters of flags.pair_pass, one
incremental rank per flag pair over the canonical chains, counted by
distinct path — a mismatch is a hard ConsistencyError, never a warning.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from types import MappingProxyType
from typing import Mapping, Optional

from .counting import max_distance
from .errors import (ConsistencyError, IndexOutOfRange, NotFullFlag,
                     OffsetOutOfRange, RectangleOutsideFrame, SingletonCode,
                     check_int)
from .ferrers import (EmbeddedPartition, StaircasePath, _class_rows,
                      partition_of_staircase, staircase_class)
from .flags import FlagCode, codistance, min_distance, projected_table
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
    check_int("k", k, 0, p.n - 2, OffsetOutOfRange)
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
    check_int("k", k, 0, p.n - 2, OffsetOutOfRange)
    c = 0
    for t, lam in enumerate(p.parts, start=1):
        if t - k >= 1 and lam >= t - k:
            c = t - k
    return c


def black_dots_in_rectangle(a: int, b: int, n: int) -> int:
    """Black cells of a corner-anchored a x b rectangle in FF(n):
    ceil(ab/2) for n even, floor(ab/2) for n odd."""
    check_int("n", n, error=RectangleOutsideFrame)
    check_int("a", a, 1, n - 1, RectangleOutsideFrame)
    check_int("b", b, 1, n - a, RectangleOutsideFrame)
    if n % 2 == 0:
        return (a * b + 1) // 2
    return a * b // 2


def ferrers_subdiagrams_of_code(c: FlagCode) -> frozenset[EmbeddedPartition]:
    """F(C): the partitions of every staircase over every path of Γ(C), the
    full expansion that the class law (_law_table) stands in for."""
    return frozenset(partition_of_staircase(s)
                     for p in paths_of_code(c) for s in staircase_class(p))


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
    return _by_dimension({_rect_sizes(p) for p in subdiagrams})


def _by_dimension(vectors: set[tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    return {i: tuple(sorted(set(sizes), reverse=True))
            for i, sizes in enumerate(zip(*vectors), start=1)}


def _class_law(p: DistancePath) -> tuple[int, ...]:
    """The rectangle sizes of every staircase of Σ(p): min(i, n-i) - δ_i."""
    return tuple(min(i, p.n - i) - p.deltas[i] for i in range(1, p.n))


def _law_table(gamma: frozenset[DistancePath]) -> tuple[dict, list]:
    """_rect_table(F(C)) read off Γ(C) by the class law, in O(|Γ(C)| n),
    and each class's law, rows and ends.  The first and the last staircase
    of each class (every plateau turned right-down, every one down-right)
    must obey it, else ConsistencyError."""
    classes = []
    for p in gamma:
        n, law, rows, ends = p.n, _class_law(p), _class_rows(p), []
        for s in {tuple(r[0] for r in rows), tuple(r[-1] for r in rows)}:
            ends.append(partition_of_staircase(StaircasePath(n, s)))
            if _rect_sizes(ends[-1]) != law:
                raise ConsistencyError(f"staircase {s} of path {p.deltas} "
                                       f"breaks the class law {law}")
        classes.append((law, rows, ends))
    return _by_dimension({law for law, _, _ in classes}), classes


def durfee_sets_of_code(c: FlagCode) -> Mapping[int, tuple[int, ...]]:
    """D_k(C) for every k with k ≡ n (mod 2), 0 <= k <= n-2.

    Values are the distinct rectangle row counts, sorted descending, read
    off analyze's kept report, read-only.  A singleton code yields {}.
    """
    return analyze(c).durfee_sets


def check_separability(dbar: int, n: int, i: int) -> bool:
    """Hypothesis of the separability theorem: d̄ < ceil(i(n-i)/2).

    When true, |C| = |C_i| = ... = |C_{n-i}| is guaranteed.
    """
    check_int("dbar", dbar)
    check_int("n", n, error=IndexOutOfRange)
    check_int("i", i, 1, n // 2, IndexOutOfRange)
    return dbar < (i * (n - i) + 1) // 2


def rectangle_to_projected(c: FlagCode, i: int) -> tuple[bool, int]:
    """(|C_i| = |C|?, d_I(C_i)) derived purely from Durfee rectangles.

    With r_1 >= r_2 the largest rectangle sizes at dimension i and
    i* = min(i, n-i):  r_1 < i* means no two flags share F_i, so
    |C_i| = |C| and d_I(C_i) = i* - r_1; r_1 = i* alone means C_i is a
    singleton; r_1 = i* with a second value gives d_I(C_i) = i* - r_2.
    It is read off analyze's kept report, which cross-checks it against
    the directly computed parameters.
    """
    if not c.is_full:
        raise NotFullFlag("rectangle analysis needs a full code")
    if len(c) < 2:
        raise SingletonCode("need at least two flags")
    check_int("i", i, 1, c.n - 1, IndexOutOfRange)
    return analyze(c).derived[i]


def flag_distance_bounds(n: int, i: int, cardinality_equal: bool,
                         d_i: Optional[int] = None) -> tuple[int, int]:
    """The admissible interval for d_f(C) given |C_i| vs |C| and d_I(C_i).

    Equal cardinalities: [d_i^2, D^n - ceil((i-d_i)(n-i-d_i)/2)];
    otherwise: [0, D^n - ceil(i(n-i)/2)].  Symmetric in i <-> n-i.
    """
    check_int("n", n, error=IndexOutOfRange)
    check_int("i", i, 1, n - 1, IndexOutOfRange)
    dn = max_distance(n)
    if not cardinality_equal:
        return 0, dn - ((i * (n - i) + 1) // 2)
    if d_i is None:
        raise ValueError("d_i is required when cardinalities are equal")
    check_int("d_i", d_i, 1, min(i, n - i), IndexOutOfRange)
    rest = (i - d_i) * (n - i - d_i)
    return d_i * d_i, dn - ((rest + 1) // 2)


def is_optimum_distance(c: FlagCode) -> tuple[bool, dict[str, bool]]:
    """Does C attain d_f(C) = D^n?

    The three equivalent characterizations — zero codistance, Γ(C) being
    exactly the maximum path, and F(C) = {null} (n even) or {null, (1)}
    (n odd) — are each evaluated by analyze, which raises ConsistencyError
    unless they agree; so each is reported as its kept optimum.
    """
    if not c.is_full:
        raise NotFullFlag("optimum-distance check needs a full code")
    if len(c) < 2:
        raise SingletonCode("need at least two flags")
    optimum = analyze(c).optimum
    return optimum, dict.fromkeys(
        ("codistance_zero", "unique_max_path", "ferrers_set"), optimum)


def _optimum_conditions(dbar: int, gamma: frozenset[DistancePath],
                        classes: list, n: int) -> bool:
    f_opt = ({EmbeddedPartition(n, ())} if n % 2 == 0 else
             {EmbeddedPartition(n, ()), EmbeddedPartition(n, (1,))})
    conds = {
        "codistance_zero": dbar == 0,
        "unique_max_path": {p.deltas for p in gamma}
                           == {tuple(min(i, n - i) for i in range(n + 1))},
        # F(C) ⊆ f_opt: only a class whose two ends lie in f_opt is walked
        "ferrers_set": all(f_opt.issuperset(ends) and all(
            partition_of_staircase(StaircasePath(n, s)) in f_opt
            for s in product(*rows)) for _, rows, ends in classes),
    }
    votes = set(conds.values())
    if len(votes) > 1:
        raise ConsistencyError(f"optimum-distance conditions disagree: {conds}")
    return votes.pop()


@dataclass(frozen=True)
class CodeAnalysis:
    """Every direct and theorem-derived parameter of a full flag code; one
    report is kept per code and shared by every reader, so it is frozen and
    its maps are read-only views of the dicts it is built from."""

    q: int
    n: int
    size: int
    d_f: int
    codistance: int
    projected: Mapping[int, tuple[int, int]]     # i -> (|C_i|, d_I(C_i))
    derived: Mapping[int, tuple[bool, int]]      # i -> (|C_i|=|C|?, d_I)
    durfee_sets: Mapping[int, tuple[int, ...]]   # k -> descending r values
    separability: Mapping[int, bool]             # i -> hypothesis holds
    bounds: Mapping[int, tuple[int, int]]        # i -> d_f interval
    optimum: Optional[bool]
    no_pairs: bool
    consistent: bool = True

    def __post_init__(self):
        for name in ("projected", "derived", "durfee_sets", "separability",
                     "bounds"):
            view = MappingProxyType(getattr(self, name))
            object.__setattr__(self, name, view)


def analyze(c: FlagCode) -> CodeAnalysis:
    """Full §-by-§ analysis with hard cross-checking.

    Any disagreement between a theorem-derived value and the directly
    computed one aborts with ConsistencyError and keeps nothing.  The first
    call that succeeds keeps its report on the code, and every later call
    and each view of it (durfee_sets_of_code, rectangle_to_projected,
    is_optimum_distance) returns or reads that one shared report.
    """
    if not c.is_full:
        raise NotFullFlag("analyze needs a full flag code")
    if c._analysis is not None:
        return c._analysis
    n, size = c.n, len(c)
    d_f = min_distance(c)
    dbar = codistance(c)

    projected = dict(enumerate(projected_table(c), start=1))

    if size < 2:
        c._analysis = CodeAnalysis(c.q, n, size, d_f, dbar, projected, {},
                                   {}, {}, {}, None, True)
        return c._analysis

    gamma = paths_of_code(c)
    table, classes = _law_table(gamma)
    # D_k, k ascending, from the rectangle table: the sizes at i = (n - k)/2
    durfee = {n - 2 * i: table[i] for i in range(n // 2, 0, -1)}
    for k, rows in durfee.items():
        if rows[0] > (n - k) // 2:
            raise ConsistencyError(f"rectangle with {rows[0]} rows exceeds "
                                   f"the bound for k={k}")

    derived = {}
    for i, vals in table.items():
        # as rectangle_to_projected states it: the law keeps r_1 <= i*, so
        # d_I(C_i) is i* less the largest size below i*, 0 if there is none
        i_eff = min(i, n - i)
        r = next((v for v in vals if v < i_eff), i_eff)
        derived[i] = (vals[0] < i_eff, i_eff - r)
        if derived[i] != (projected[i][0] == size, projected[i][1]):
            raise ConsistencyError(
                f"dimension {i}: rectangles {vals} give {derived[i]}, "
                f"direct computation gives {projected[i]}")

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

    c._analysis = CodeAnalysis(c.q, n, size, d_f, dbar, projected, derived,
                               durfee, separability, bounds,
                               _optimum_conditions(dbar, gamma, classes, n),
                               False)
    return c._analysis
