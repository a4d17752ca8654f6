"""Flags, flag codes, flag distance and projected codes.

A flag is encoded by a single stacked generator matrix with prefix-span
semantics: the i-th subspace of the flag is the span of the first t_i rows.
Full flags on F_q^n use an invertible n x n generator (the first n-1 rows
carry the subspaces, row n completes invertibility).  Flag equality is by
the tuple of canonical subspaces, not by generator matrices.  One pass over
the flag pairs of a code runs, per pair, the profile sweep over the
generators and a direct path over the canonical chains, checks the two
equal, and keeps only the number of pairs at each distinct path: d_f,
Γ(C) and the projected-code parameters are all read off those counts.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations, compress
from math import prod
from operator import not_
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .counting import max_distance
from .errors import (ConsistencyError, IndexOutOfRange, NotFullFlag,
                     RankDeficient, TypeMismatch, check_int)
from .gfq_linalg import (Subspace, chain_levels, chain_path, is_contained,
                         require_prime, span_chain)


@dataclass(frozen=True)
class TypeVector:
    """A strictly increasing dimension vector t_1 < ... < t_r < n."""

    n: int
    dims: tuple[int, ...]

    def __post_init__(self):
        check_int("n", self.n, 2)
        if not self.dims:
            raise ValueError("empty type vector")
        prev = 0
        for t in self.dims:
            if not isinstance(t, int) or t <= prev:
                raise ValueError(f"type {self.dims} not strictly increasing integers")
            prev = t
        if self.dims[0] < 1 or self.dims[-1] > self.n - 1:
            raise ValueError(f"type {self.dims} out of range for n={self.n}")
        object.__setattr__(self, "dims", tuple(map(int, self.dims)))

    @classmethod
    def full(cls, n: int) -> "TypeVector":
        return cls(n, tuple(range(1, check_int("n", n))))

    @property
    def is_full(self) -> bool:
        return self.dims == tuple(range(1, self.n))

    @property
    def length(self) -> int:
        return len(self.dims)


# bytes.translate tables from entries to plane digits, apart from gfq_linalg's;
# a byte outside range(q) maps to ".", which int() rejects
_BITS = b"01".ljust(256, b".")
_ONES, _TWOS = b"010".ljust(256, b"."), b"001".ljust(256, b".")


def _pack(q: int, rows: Sequence[bytes | Sequence[int]]) -> tuple:
    """Rows, bytes as they are, packed for the profile sweep at q = 2, 3,
    column 0 in the top bit: for q = 2 one int per row; for q = 3 a (ones,
    twos) pair of bit-planes per row."""
    if q == 2:
        return tuple([int(bytes(r).translate(_BITS), 2) for r in rows])
    return tuple([(int(b.translate(_ONES), 2), int(b.translate(_TWOS), 2))
                  for b in map(bytes, rows)])


class Flag:
    """A nested sequence of subspaces of F_q^n of a given type.

    Construct through flag_from_matrix or random_full_flag; direct
    construction assumes the caller already validated nesting.  Generator
    rows may be bytes, which are packed as they are and kept as int tuples.
    """

    __slots__ = ("q", "n", "type", "generator", "subspaces", "_packed", "_key")

    def __init__(self, q: int, n: int, type_: TypeVector,
                 generator: Sequence, subspaces: tuple[Subspace, ...]):
        self.q = q
        self.n = n
        self.type = type_
        self.generator = tuple(map(tuple, generator))
        self.subspaces = subspaces
        self._packed = _pack(q, generator) if q < 5 else self.generator
        self._key = (q, n, type_.dims, subspaces)

    def __eq__(self, other):
        return isinstance(other, Flag) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Flag(q={self.q}, n={self.n}, type={self.type.dims})"

    @property
    def is_full(self) -> bool:
        return self.type.is_full


@cache
def _mod_table(q: int) -> bytes:
    """b -> b mod q as a bytes.translate table, for a prime q < 256."""
    return bytes([b % q for b in range(256)])


def flag_from_matrix(q: int, n: int, type_: TypeVector,
                     rows: Iterable[Iterable[int]]) -> Flag:
    """Build a flag whose i-th subspace is the span of the first t_i rows.

    Entries are reduced mod q, a bytes row's by one translate, and every row
    must have n integer entries (TypeMismatch otherwise); the reduced rows,
    bytes or tuples, go to span_chain and to the flag, as its generator.
    Every row is read: they must be independent and at most n, and
    RankDeficient(k) names the first row k that is not.  F_i is where the
    one span_chain over the rows stands at row t_i, at every q.
    """
    require_prime(q)
    if type_.n != check_int("n", n):
        raise TypeMismatch(f"type vector is for n={type_.n}, flag for n={n}")
    table = _mod_table(q) if q < 256 else None     # every byte is below q
    try:
        rows = [r.translate(table) if type(r) is bytes
                else tuple([e % q for e in r]) for r in rows]
        for r in rows:
            if len(r) != n:
                raise TypeMismatch(f"expected {n} columns, got {len(r)}")
        t_last = type_.dims[-1]
        if len(rows) < t_last:
            raise RankDeficient(t_last, f"only {len(rows)} rows for type {type_.dims}")
        if len(rows) > n:
            raise RankDeficient(n + 1, f"{len(rows)} rows in F_{q}^{n}")
        chain = span_chain(Subspace(q, n, rows=(), mask=0), rows, t_last)
    except TypeError as exc:    # bytes() at q = 2, 3, index() above
        raise TypeMismatch("row entries must be integers") from exc
    if len(chain) < len(rows):
        raise RankDeficient(len(chain) + 1)

    flag = Flag(q, n, type_, rows, tuple([chain[t - 1] for t in type_.dims]))
    _recheck_nesting(flag)
    return flag


def _recheck_nesting(flag: Flag) -> None:
    """Direct containment check F_1 ⊊ F_2 ⊊ ... on the canonical bases: the
    only check at construction time that the prefix spans nest, by
    is_contained, which shares no code with span_chain."""
    for small, big in zip(flag.subspaces, flag.subspaces[1:]):
        if len(small.rows) >= len(big.rows):
            raise RankDeficient(len(big.rows), "dimensions do not strictly increase")
        if not is_contained(small, big):
            raise RankDeficient(len(big.rows), "subspaces are not nested")


def projection(f: Flag, i: int) -> Subspace:
    """The i-th subspace p_i(F) = F_i (1-based in the type vector)."""
    check_int("i", i, 1, f.type.length, IndexOutOfRange)
    return f.subspaces[i - 1]


def _check_same_type(f: Flag, g: Flag) -> None:
    if (f.q, f.n, f.type.dims) != (g.q, g.n, g.type.dims):
        raise TypeMismatch(
            f"({f.q},{f.n},{f.type.dims}) vs ({g.q},{g.n},{g.type.dims})")


def pair_distance_profile(f: Flag, g: Flag) -> tuple[int, ...]:
    """Per-index injection distances (d_I(F_{t_1},G_{t_1}), ...).

    One incremental forward elimination over the stacked generator
    prefixes: at prefix t, dim(F_t + G_t) is the running rank and d_I =
    rank - t; no row is added after a dimension whose rank is n, as it then
    stays n.  A kept row is stored under its leading bit (column for q >= 5).
    The rows are f._packed: ints reduced with XOR at q = 2, bit-plane pairs
    at q = 3, where negation swaps the planes and x + p and x - p are each
    three ORs and three XORs (Kawahara, Aoki & Takagi, 2008), and lists of
    ints at larger q, their pivot rows scaled to lead with 1.
    """
    _check_same_type(f, g)
    q, n, fp, gp = f.q, f.n, f._packed, g._packed
    own, rank, prev, out = [None] * (n + 1), 0, 0, []
    for t in f.type.dims:   # a full rank stays n: d_I = n - t from there on
        for k in range(prev, t if rank < n else prev):
            for x in (fp[k], gp[k]):
                if q == 2:
                    while x:
                        b = x.bit_length()
                        p = own[b]
                        if p is None:
                            own[b], rank = x, rank + 1
                            break
                        x ^= p
                elif q == 3:
                    lo, hi = x
                    while lo | hi:
                        b = (lo | hi).bit_length()
                        p = own[b]
                        lead_one = lo >> (b - 1)
                        if p is None:
                            own[b] = (lo, hi) if lead_one else (hi, lo)
                            rank += 1
                            break
                        plo, phi = p
                        if lead_one:        # x - p
                            s = (lo | plo) ^ (hi | phi)
                            lo, hi = (hi | plo) ^ s, (lo | phi) ^ s
                        else:               # x + p
                            s = (lo | phi) ^ (hi | plo)
                            lo, hi = (hi | phi) ^ s, (lo | plo) ^ s
                else:
                    for col in range(n):
                        c = x[col]
                        if c and (p := own[col]) is None:
                            inv = pow(c, q - 2, q)
                            own[col], rank = [e * inv % q for e in x], rank + 1
                            break
                        if c:
                            x = [(a - c * b) % q for a, b in zip(x, p)]
        out.append(rank - t)
        prev = t
    return tuple(out)


def flag_distance(f: Flag, g: Flag) -> int:
    """d_f(F, F') = sum of per-dimension injection distances."""
    return sum(pair_distance_profile(f, g))


class FlagCode:
    """A set of flags of a common type, deduplicated at construction."""

    __slots__ = ("q", "n", "type", "flags", "_pairs", "_analysis")

    def __init__(self, flags: Iterable[Flag]):
        self.flags: tuple[Flag, ...] = tuple(dict.fromkeys(flags))
        if not self.flags:
            raise ValueError("a flag code needs at least one flag")
        first = self.flags[0]       # a key starts with (q, n, type dims)
        if any(fl._key[:3] != first._key[:3] for fl in self.flags):
            raise TypeMismatch("flags of mixed q/n/type in one code")
        self.q, self.n, self.type = first.q, first.n, first.type
        self._pairs = None          # pair_pass's (counts, table)
        self._analysis = None       # durfee_analysis.analyze's report

    def __len__(self):
        return len(self.flags)

    def __iter__(self) -> Iterator[Flag]:
        return iter(self.flags)

    @property
    def is_full(self) -> bool:
        return self.type.is_full


def pair_pass(c: FlagCode) -> tuple[Mapping[tuple[int, ...], int],
                                    tuple[tuple[int, int], ...]]:
    """One pass over the pairs of distinct flags, in the order (0,1),
    (0,2), ..., (1,2), ...: the number of pairs at each distinct path, in
    first-seen order, and (|C_i|, d_I(C_i)) at each dimension t_i, kept on
    the code (nothing per pair is).  A pair's direct path is chain_path over
    the canonical chains, which shares no code with pair_distance_profile.
    |C_i| comes from Subspace hashing; d_I(C_i) is the least positive δ_i,
    0 for a singleton.  ConsistencyError unless δ_i = 0 for as many pairs
    as share F_{t_i}, at each i, then unless each path equals its pair's
    sweep profile."""
    if c._pairs is None:
        flags, dims = c.flags, c.type.dims
        levels = [chain_levels(fl.subspaces) for fl in flags]
        counts: dict[tuple[int, ...], int] = {}
        mismatch = None
        for a, b in combinations(range(len(flags)), 2):
            path = chain_path(c.q, c.n, dims, levels[a], levels[b])
            counts[path] = counts.get(path, 0) + 1
            profile = pair_distance_profile(flags[a], flags[b])
            if path != profile and mismatch is None:
                mismatch = (f"flags {a} and {b}: direct path {path}, "
                            f"sweep profile {profile}")
        table, weights = [], list(counts.values())
        for t, deltas, col in zip(dims, list(zip(*counts)) or [()] * len(dims),
                                  zip(*(fl.subspaces for fl in flags))):
            distinct = set(col)
            shared = 0 if len(distinct) == len(col) else sum(
                m * (m - 1) // 2 for m in Counter(col).values())
            zeros = sum(compress(weights, map(not_, deltas)))
            if zeros != shared:
                raise ConsistencyError(f"dimension {t}: {zeros} "
                                       f"pairs at d_I = 0, {shared} share it")
            table.append((len(distinct), min(filter(None, deltas), default=0)))
        if mismatch:
            raise ConsistencyError(mismatch)
        c._pairs = MappingProxyType(counts), tuple(table)
    return c._pairs


def min_distance(c: FlagCode) -> int:
    """Minimum pairwise flag distance, the least path sum; 0 for one flag."""
    return min(map(sum, pair_pass(c)[0]), default=0)


def codistance(c: FlagCode) -> int:
    """D^n - d_f(C), defined for full flag codes only."""
    if not c.is_full:
        raise NotFullFlag(f"codistance needs a full code, got type {c.type.dims}")
    return max_distance(c.n) - min_distance(c)


def projected_code(c: FlagCode, i: int) -> tuple[Subspace, ...]:
    """C_i = {p_i(F) : F in C}, deduplicated (first-seen order)."""
    check_int("i", i, 1, c.type.length, IndexOutOfRange)
    seen: dict[Subspace, None] = {}
    for fl in c:
        seen.setdefault(fl.subspaces[i - 1])
    return tuple(seen)


def projected_table(c: FlagCode) -> tuple[tuple[int, int], ...]:
    """(|C_i|, d_I(C_i)) at each dimension t_i of the type, from pair_pass."""
    return pair_pass(c)[1]


def projected_parameters(c: FlagCode, i: int) -> tuple[int, int]:
    """(|C_i|, d_I(C_i)) for the i-th dimension of the type, read off
    projected_table; d_I is 0 for a singleton."""
    check_int("i", i, 1, c.type.length, IndexOutOfRange)
    return projected_table(c)[i - 1]


def projected_distance(c: FlagCode, i: int) -> int:
    """Minimum injection distance of C_i; 0 if C_i is a singleton."""
    return projected_parameters(c, i)[1]


# ---------------------------------------------------------------------------
# Random generators for the verification suites.
# ---------------------------------------------------------------------------

def random_full_flag(q: int, n: int, rng: random.Random) -> Flag:
    """A full flag drawn row by row by rejection: a row is kept iff it
    grows the one Subspace.extend chain, whose spaces are F_1, ..., F_{n-1};
    the kept rows are the generator.  Subspace checks q before any draw."""
    type_, chain, rows = TypeVector.full(n), [Subspace(q, n, ())], []
    while len(rows) < n:
        row = tuple([rng.randrange(q) for _ in range(n)])
        space = chain[-1].extend(row)
        if space.dim > len(rows):
            rows.append(row)
            chain.append(space)
    flag = Flag(q, n, type_, tuple(rows), tuple(chain[1:n]))
    _recheck_nesting(flag)
    return flag


def random_full_flag_code(q: int, n: int, size: int,
                          rng: random.Random) -> FlagCode:
    """A full flag code with exactly *size* distinct flags.

    F_q^n has prod_{i=1}^{n} (q^i - 1)/(q - 1) full flags; a larger *size*
    raises ValueError.
    """
    require_prime(q)
    available = prod((q ** i - 1) // (q - 1)
                     for i in range(1, check_int("n", n, 2) + 1))
    if check_int("size", size, 1) > available:
        raise ValueError(f"F_{q}^{n} has {available} full flags, "
                         f"not {size}")
    unique: dict[Flag, None] = {}
    while len(unique) < size:
        unique.setdefault(random_full_flag(q, n, rng))
    return FlagCode(unique)
