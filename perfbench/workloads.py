"""Seeded inputs for the flagcomb benchmark, and the counts that check them.

Nothing here imports flagcomb, so a change to the library cannot change the
inputs.  Every generator uses only the standard library's ``random``.

An analyze workload is a fixed list of strata, one per slot of a cycle; a
stratum fixes the shape of a code (q, n, |C|) and so, closely, the work one
op does.  Stratum *label* has ``POOL_SIZE`` variants: variant *v* is drawn
from ``random.Random(f"{workload}/{label}/{v}")``.  A run repeats
``DRAWS[workload]`` cycles in turn, and the run seed picks a different
variant of every slot for each of them; the slots run in a fixed order,
which keeps the allocation pattern, and so the peak memory, the same from
seed to seed.  The same seed therefore gives byte-identical inputs, another
seed gives other inputs, and the work per cycle hardly moves from seed to
seed.  Because the variants form a
fixed pool, ``reference.json`` can hold the expected output digest of every
analyze input the benchmark can ever generate.

The enumerate workload needs no pool: its outputs are checked against
counts computed here by recurrences that share no code with flagcomb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb

POOL_SIZE = 16

# (q, n, |C|) per slot.  Weighted toward cheap shapes so that a run of
# 20 s holds at least 100 ops for the p90.  A percentile that fell
# between two groups of different cost, or in the tail of a group, would
# jump from run to run; so the median falls inside the three (3, 12, 8)
# slots and the p90 near the middle of the six slots of about 0.3 s,
# (3, 16, 8) and (2, 8, 20), at every whole number of cycles.
RANDOM_STRATA = (
    (2, 8, 8), (3, 8, 8), (2, 8, 10), (2, 8, 12), (3, 8, 12), (2, 10, 8),
    (3, 10, 8),
    (2, 12, 8), (3, 12, 8), (2, 12, 8), (3, 12, 8), (2, 12, 8), (3, 12, 8),
    (2, 10, 12), (3, 10, 12), (2, 14, 8), (3, 14, 8), (2, 8, 20),
    (3, 16, 8), (3, 16, 8), (3, 16, 8), (3, 16, 8),
    (2, 8, 20),
)

SMALL_STRATA = tuple((q, n, size)
                     for q in (2, 3) for n in (4, 5, 6, 7) for size in (2, 3)
                     for _slot in range(4))

# (q, n) per slot.  Every code of one n expands the same 1.5 * 2^(n-2)
# staircases (see plateau_code).  The median falls in the middle of the
# n = 12 group and the p90 in the middle of the n = 13 group.
PLATEAU_STRATA = (
    ((2, 11), (3, 11), (2, 11))
    + ((2, 12), (3, 12)) * 7
    + ((2, 13), (3, 13), (2, 14))
)
PLATEAU_CODE_SIZE = 3
THIRD_FLAG_PLATEAUS = 4      # the third flag's paths have n - 4 plateaus

# (command, n) per slot; u for ``partitions n -u u`` is drawn from the seed.
# By cost: paths 9-11 and partitions 9 < bijection 9 < partitions 10 <
# bijection 10; the median falls inside the bijection 9 group and the p90
# inside the bijection 10 group.  partitions 11 and bijection 11 (0.5 s and
# 1.2 s) are left out: one slot of each put the p90 on a group of ten
# samples a run.
ENUMERATE_STRATA = (
    (("paths", 9),) * 2 + (("paths", 10),) * 2 + (("paths", 11),) * 2
    + (("partitions", 9),) * 4 + (("bijection", 9),) * 8
    + (("partitions", 10),) * 3 + (("bijection", 10),) * 5
)

WORKLOADS = ("analyze-random", "analyze-small", "analyze-plateau", "enumerate")

# Distinct cycles per run, about as many as a run of 20 s completes.
DRAWS = {"analyze-random": 5, "analyze-small": 8, "analyze-plateau": 5,
         "enumerate": 6}


@dataclass(frozen=True)
class Item:
    """One op of a cycle: a CLI command plus the data its check needs.

    For ``analyze`` the argument list is completed with the path the code
    text is written to; for the enumerate commands ``args`` is complete.
    """

    command: str
    args: tuple[str, ...] = ()
    code_text: str = ""
    n: int = 0
    u: int = -1


# ---------------------------------------------------------------------------
# GF(q) codes
# ---------------------------------------------------------------------------

def random_invertible(q: int, n: int, rng: random.Random) -> list[list[int]]:
    """P·L·U with L unit lower-triangular and U upper-triangular with a
    nonzero diagonal, so the product is invertible by construction."""
    lower = [[1 if j == i else (rng.randrange(q) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[rng.randrange(1, q) if j == i else
              (rng.randrange(q) if j > i else 0)
              for j in range(n)] for i in range(n)]
    rows = [[sum(lower[i][k] * upper[k][j] for k in range(n)) % q
             for j in range(n)] for i in range(n)]
    rng.shuffle(rows)
    return rows


def flag_key(rows: list[list[int]], q: int) -> tuple[tuple[int, ...], ...]:
    """A canonical form of the full flag spanned by the row prefixes.

    Row k is reduced to the unique vector of F_k that is zero at the
    pivots of rows 1..k-1, scaled to a leading 1.  The last row is left out:
    F_n is the whole space whatever it is.
    """
    basis: list[tuple[int, list[int]]] = []
    for row in rows[:-1]:
        r = list(row)
        for pivot, b in basis:
            c = r[pivot]
            if c:
                r = [(x - c * y) % q for x, y in zip(r, b)]
        pivot = next(i for i, e in enumerate(r) if e)
        inv = pow(r[pivot], q - 2, q)
        basis.append((pivot, [(x * inv) % q for x in r]))
    return tuple(tuple(r) for _, r in basis)


def code_text(q: int, n: int, generators: list[list[list[int]]]) -> str:
    """The text code-file format: a ``q n full`` header, then one block of
    generator rows per flag."""
    blocks = ["\n".join(" ".join(map(str, row)) for row in rows)
              for rows in generators]
    return f"{q} {n} full\n\n" + "\n\n".join(blocks) + "\n"


def random_code(q: int, n: int, size: int, rng: random.Random) -> str:
    """A full code of exactly *size* distinct flags with random generators."""
    seen = set()
    generators = []
    while len(generators) < size:
        rows = random_invertible(q, n, rng)
        key = flag_key(rows, q)
        if key not in seen:
            seen.add(key)
            generators.append(rows)
    return code_text(q, n, generators)


# ---------------------------------------------------------------------------
# Coordinate flags with plateau-heavy paths
# ---------------------------------------------------------------------------

def coordinate_path(wa: tuple[int, ...], wb: tuple[int, ...]) -> tuple[int, ...]:
    """Distance path of the coordinate flags with basis orders wa and wb:
    δ_i = i - |{wa(1..i)} ∩ {wb(1..i)}|."""
    return tuple(i - len(set(wa[:i]) & set(wb[:i]))
                 for i in range(len(wa) + 1))


def positive_plateaus(deltas: tuple[int, ...]) -> int:
    return sum(1 for a, b in zip(deltas, deltas[1:]) if a == b > 0)


def _block_rotation(n: int, rng: random.Random) -> tuple[int, ...]:
    """Rotate each block of a random cut of 1..n by one place.

    Against the identity this gives δ = 1 inside each block of two or more,
    so the positive plateaus number n - 2·#blocks(>=2) - #singletons.
    """
    cuts = [0] + [i for i in range(1, n) if rng.random() < 0.15] + [n]
    w: list[int] = []
    for a, b in zip(cuts, cuts[1:]):
        block = list(range(a + 1, b + 1))
        if len(block) > 1:
            block = (block[1:] + block[:1] if rng.random() < 0.5
                     else block[-1:] + block[:-1])
        w.extend(block)
    return tuple(w)


def plateau_code(q: int, n: int,
                 rng: random.Random) -> tuple[str, list[tuple[int, ...]]]:
    """A code of coordinate flags that always holds the pair with path
    (0,1,...,1,0) (n - 2 positive plateaus), plus a block rotation of the
    identity whose paths to both have n - 4.

    Returns the code text and the basis order of each flag in file order.
    One random relabelling of the coordinates is applied to every flag; it
    changes the bytes but none of the distance paths.
    """
    identity = tuple(range(1, n + 1))
    shift = identity[1:] + identity[:1]
    if rng.random() < 0.5:
        shift = identity[-1:] + identity[:-1]
    perms = [identity, shift]
    while len(perms) < PLATEAU_CODE_SIZE:
        # rejection: exactly n - THIRD_FLAG_PLATEAUS positive plateaus to
        # every flag so far, so the staircase work depends on n alone
        perm = _block_rotation(n, rng)
        if all(positive_plateaus(coordinate_path(p, perm))
               == n - THIRD_FLAG_PLATEAUS for p in perms):
            perms.append(perm)
    rng.shuffle(perms)
    relabel = list(range(n))
    rng.shuffle(relabel)
    generators = [[[1 if c == relabel[w - 1] else 0 for c in range(n)]
                   for w in perm] for perm in perms]
    return code_text(q, n, generators), perms


def paths_of_perms(perms: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Γ(C) of a coordinate-flag code, computed here without flagcomb."""
    return {coordinate_path(perms[a], perms[b])
            for a in range(len(perms)) for b in range(a + 1, len(perms))}


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------

def _analyze_item(workload: str, stratum: tuple[int, ...], v: int) -> Item:
    label = "-".join(map(str, stratum))
    rng = random.Random(f"{workload}/{label}/{v}")
    if workload == "analyze-plateau":
        q, n = stratum
        text, _perms = plateau_code(q, n, rng)
    else:
        q, n, size = stratum
        text = random_code(q, n, size, rng)
    return Item("analyze", code_text=text, n=n)


ANALYZE_STRATA = {
    "analyze-random": RANDOM_STRATA,
    "analyze-small": SMALL_STRATA,
    "analyze-plateau": PLATEAU_STRATA,
}


def pool(workload: str) -> list[Item]:
    """Every input an analyze workload can draw, whatever the seed."""
    strata = dict.fromkeys(ANALYZE_STRATA[workload])
    return [_analyze_item(workload, s, v)
            for s in strata for v in range(POOL_SIZE)]


def cycles(workload: str, seed: int) -> list[list[Item]]:
    """The ``DRAWS[workload]`` cycles of *workload*, fixed by *seed*.

    A run repeats them in turn.  An analyze slot gets a different variant
    in each cycle, so a run's percentiles rest on that many inputs of the
    slot's shape and not on the cost of one.
    """
    rng = random.Random(f"{workload}#{seed}")
    draws = DRAWS[workload]
    if workload in ANALYZE_STRATA:
        strata = ANALYZE_STRATA[workload]
        variants = [rng.sample(range(POOL_SIZE), draws) for _ in strata]
        return [[_analyze_item(workload, s, vs[r])
                 for s, vs in zip(strata, variants)] for r in range(draws)]
    if workload != "enumerate":
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    for _ in range(draws):
        items = []
        for command, n in ENUMERATE_STRATA:
            if command == "partitions":
                u = rng.randrange(max_distance(n) + 1)
                items.append(Item(command, (str(n), "-u", str(u)), n=n, u=u))
            else:
                items.append(Item(command, (str(n),), n=n))
        out.append(items)
    return out


def warmup_items(workload: str) -> list[Item]:
    """One tiny op per command the workload uses, run before timing."""
    if workload == "enumerate":
        return [Item("paths", ("4",), n=4),
                Item("partitions", ("4", "-u", "1"), n=4, u=1),
                Item("bijection", ("4",), n=4)]
    return [Item("analyze", code_text=code_text(
        2, 3, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
               [[0, 1, 0], [0, 0, 1], [1, 0, 0]]]), n=3)]


# ---------------------------------------------------------------------------
# Independent counts for the enumerate checks
# ---------------------------------------------------------------------------

def max_distance(n: int) -> int:
    return n * n // 4


def motzkin(n: int) -> int:
    """Number of distance paths on S(n): Motzkin paths of length n."""
    heights = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for h, c in heights.items():
            for h2 in (h - 1, h, h + 1):
                if h2 >= 0:
                    nxt[h2] = nxt.get(h2, 0) + c
        heights = nxt
    return heights[0]


def paths_by_distance(n: int) -> dict[int, int]:
    """Motzkin paths of length n counted by area (= flag distance)."""
    states = {(0, 0): 1}                       # (height, area) -> count
    for _ in range(n):
        nxt: dict[tuple[int, int], int] = {}
        for (h, area), c in states.items():
            for h2 in (h - 1, h, h + 1):
                if h2 >= 0:
                    key = (h2, area + h2)
                    nxt[key] = nxt.get(key, 0) + c
        states = nxt
    return {area: c for (h, area), c in states.items() if h == 0}


def catalan(n: int) -> int:
    """Number of partitions inside the staircase (n-1, ..., 1)."""
    return comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def _partitions_by_value(n: int, row: int, bound: int) -> tuple[tuple[int, int], ...]:
    # Rows row..n-1 of a partition in FF(n) whose parts are <= bound, by
    # black-cell count; row i holds ceil(l/2) black cells when n + i is odd
    # and floor(l/2) otherwise.
    counts = {0: 1}                           # this row and all later empty
    if row <= n - 1:
        for part in range(1, min(bound, n - row) + 1):
            black = (part + 1) // 2 if (n + row) % 2 else part // 2
            for u, c in _partitions_by_value(n, row + 1, part):
                counts[u + black] = counts.get(u + black, 0) + c
    return tuple(sorted(counts.items()))


def partitions_with_value(n: int, u: int) -> int:
    """Partitions inside FF(n) with exactly u black cells."""
    return dict(_partitions_by_value(n, 1, n - 1)).get(u, 0)
