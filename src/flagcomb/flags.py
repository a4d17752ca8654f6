"""Flags, flag codes, flag distance and projected codes.

A flag is encoded by a single stacked generator matrix with prefix-span
semantics: the i-th subspace of the flag is the span of the first t_i rows.
Full flags on F_q^n use an invertible n x n generator (the first n-1 rows
carry the subspaces, row n completes invertibility).  Flag equality is by
the tuple of canonical subspaces, not by generator matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod
from typing import Iterable, Iterator, Sequence

from .errors import (IndexOutOfRange, NotFullFlag, RankDeficient,
                     TypeMismatch)
from .gfq_linalg import (MatGFq, RowSpace, Subspace, _seeded_dim_sum,
                         is_prime)


@dataclass(frozen=True)
class TypeVector:
    """A strictly increasing dimension vector t_1 < ... < t_r < n."""

    n: int
    dims: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {self.n}")
        if not self.dims:
            raise ValueError("empty type vector")
        prev = 0
        for t in self.dims:
            if t <= prev:
                raise ValueError(f"type vector not strictly increasing: {self.dims}")
            prev = t
        if self.dims[0] < 1 or self.dims[-1] > self.n - 1:
            raise ValueError(f"type {self.dims} out of range for n={self.n}")

    @classmethod
    def full(cls, n: int) -> "TypeVector":
        return cls(n, tuple(range(1, n)))

    @property
    def is_full(self) -> bool:
        return self.dims == tuple(range(1, self.n))

    @property
    def length(self) -> int:
        return len(self.dims)


# str.translate tables from a row's digit string to its GF(3) bit-planes
_ONES = str.maketrans("2", "0")
_TWOS = str.maketrans("12", "01")


def _pack(q: int, rows: Sequence[Sequence[int]]) -> tuple | None:
    """Rows packed for the bit-level profile sweeps, column 0 in the top
    bit: for q = 2 one int per row; for q = 3 a (ones, twos) pair of
    bit-planes per row; None for larger q, which keeps the list kernel."""
    if q == 2:
        return tuple(int("".join(map(str, r)), 2) for r in rows)
    if q == 3:
        digits = ["".join(map(str, r)) for r in rows]
        return tuple((int(d.translate(_ONES), 2), int(d.translate(_TWOS), 2))
                     for d in digits)
    return None


class Flag:
    """A nested sequence of subspaces of F_q^n of a given type.

    Construct through flag_from_matrix; direct construction assumes the
    caller already validated nesting.
    """

    __slots__ = ("q", "n", "type", "generator", "subspaces", "_packed", "_key")

    def __init__(self, q: int, n: int, type_: TypeVector,
                 generator: MatGFq, subspaces: tuple[Subspace, ...]):
        self.q = q
        self.n = n
        self.type = type_
        self.generator = generator
        self.subspaces = subspaces
        self._packed = _pack(q, generator.entries)
        self._key = (q, n, type_.dims, tuple(s.basis for s in subspaces))

    def __eq__(self, other):
        return isinstance(other, Flag) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Flag(q={self.q}, n={self.n}, type={self.type.dims})"

    @property
    def is_full(self) -> bool:
        return self.type.is_full


def flag_from_matrix(q: int, n: int, type_: TypeVector,
                     m: MatGFq | Iterable[Iterable[int]]) -> Flag:
    """Build a flag whose i-th subspace is the span of the first t_i rows.

    Raises RankDeficient(t_i) as soon as a prefix fails to reach rank t_i.
    For full flags given with n rows, the whole matrix must be invertible
    (RankDeficient(n) otherwise).
    """
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if type_.n != n:
        raise TypeMismatch(f"type vector is for n={type_.n}, flag for n={n}")
    if not isinstance(m, MatGFq):
        m = MatGFq.make(q, m)
    if m.q != q:
        raise TypeMismatch(f"matrix over F_{m.q}, flag over F_{q}")
    if m.n_cols != n:
        raise TypeMismatch(f"expected {n} columns, got {m.n_cols}")
    t_last = type_.dims[-1]
    if m.n_rows < t_last:
        raise RankDeficient(t_last, f"only {m.n_rows} rows for type {type_.dims}")

    stop = n if type_.is_full and m.n_rows >= n else t_last
    space = RowSpace(q, n)
    subspaces = []
    targets = set(type_.dims)
    for idx, row in enumerate(m.entries[:stop], start=1):
        space.add(row)
        if idx in targets:
            if space.rank < idx:
                raise RankDeficient(idx)
            subspaces.append(Subspace(q, n, space.basis()))
    if space.rank < stop:
        raise RankDeficient(n, "full-flag generator is singular")

    flag = Flag(q, n, type_, m, tuple(subspaces))
    _recheck_nesting(flag)
    return flag


def _recheck_nesting(flag: Flag) -> None:
    """Direct containment check F_1 ⊊ F_2 ⊊ ... on the canonical bases.

    Prefix spans nest by construction; this is kept as the only check of
    that at construction time, independent of the sweep that built them."""
    for small, big in zip(flag.subspaces, flag.subspaces[1:]):
        if small.dim >= big.dim:
            raise RankDeficient(big.dim, "dimensions do not strictly increase")
        outer = RowSpace.from_rref(flag.q, flag.n, big.basis)
        for row in small.basis:
            if not outer.contains(row):
                raise RankDeficient(big.dim, "subspaces are not nested")


def projection(f: Flag, i: int) -> Subspace:
    """The i-th subspace p_i(F) = F_i (1-based in the type vector)."""
    if not 1 <= i <= f.type.length:
        raise IndexOutOfRange(f"i={i} not in [1, {f.type.length}]")
    return f.subspaces[i - 1]


def _check_same_type(f: Flag, g: Flag) -> None:
    if (f.q, f.n, f.type.dims) != (g.q, g.n, g.type.dims):
        raise TypeMismatch(
            f"({f.q},{f.n},{f.type.dims}) vs ({g.q},{g.n},{g.type.dims})")


def pair_distance_profile(f: Flag, g: Flag) -> tuple[int, ...]:
    """Per-index injection distances (d_I(F_{t_1},G_{t_1}), ...).

    One incremental elimination sweep over the stacked generator prefixes:
    at prefix t, dim(F_t + G_t) is the running rank, and for equal dims
    d_I = dim(F_t + G_t) - t.  q = 2 and q = 3 sweep the packed rows;
    larger q sweeps the reference list kernel.
    """
    _check_same_type(f, g)
    if f.q == 2:
        return _profile_gf2(f, g)
    if f.q == 3:
        return _profile_gf3(f, g)
    return _profile_rows(f, g)


def _profile_rows(f: Flag, g: Flag) -> tuple[int, ...]:
    """The profile sweep on the reference list kernel (RowSpace.add)."""
    space = RowSpace(f.q, f.n)
    frows = f.generator.entries
    grows = g.generator.entries
    out = []
    prev = 0
    for t in f.type.dims:
        for k in range(prev, t):
            space.add(frows[k])
            space.add(grows[k])
        out.append(space.rank - t)
        prev = t
    return tuple(out)


def _profile_gf2(f: Flag, g: Flag) -> tuple[int, ...]:
    """The profile sweep over GF(2) rows packed as ints: XOR elimination,
    each pivot row stored under its bit_length."""
    pivots = [0] * (f.n + 1)
    fp, gp = f._packed, g._packed
    rank = prev = 0
    out = []
    for t in f.type.dims:
        for k in range(prev, t):
            for x in (fp[k], gp[k]):
                while x:
                    b = x.bit_length()
                    p = pivots[b]
                    if not p:
                        pivots[b] = x
                        rank += 1
                        break
                    x ^= p
        out.append(rank - t)
        prev = t
    return tuple(out)


def _profile_gf3(f: Flag, g: Flag) -> tuple[int, ...]:
    """The profile sweep over GF(3) rows bitsliced into (ones, twos)
    planes.  Negation swaps the planes; x + y and x - y are each three
    ORs and three XORs (Kawahara, Aoki & Takagi, 2008).  Pivot rows are
    stored with leading entry 1 under the bit_length of ones | twos."""
    pivots: list[tuple[int, int] | None] = [None] * (f.n + 1)
    fp, gp = f._packed, g._packed
    rank = prev = 0
    out = []
    for t in f.type.dims:
        for k in range(prev, t):
            for lo, hi in (fp[k], gp[k]):
                while lo | hi:
                    b = (lo | hi).bit_length()
                    p = pivots[b]
                    lead_one = lo >> (b - 1)
                    if p is None:
                        pivots[b] = (lo, hi) if lead_one else (hi, lo)
                        rank += 1
                        break
                    plo, phi = p
                    if lead_one:        # x - p
                        s = (lo | plo) ^ (hi | phi)
                        lo, hi = (hi | plo) ^ s, (lo | phi) ^ s
                    else:               # x + p
                        s = (lo | phi) ^ (hi | plo)
                        lo, hi = (hi | phi) ^ s, (lo | plo) ^ s
        out.append(rank - t)
        prev = t
    return tuple(out)


def flag_distance(f: Flag, g: Flag) -> int:
    """d_f(F, F') = sum of per-dimension injection distances."""
    return sum(pair_distance_profile(f, g))


def max_distance(n: int) -> int:
    """D^n = floor(n^2 / 4), the maximum full-flag distance."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return n * n // 4


class FlagCode:
    """A set of flags of a common type, deduplicated at construction."""

    __slots__ = ("q", "n", "type", "flags", "_profiles")

    def __init__(self, flags: Iterable[Flag]):
        unique: dict[Flag, None] = {}
        first = None
        for fl in flags:
            if first is None:
                first = fl
            elif (fl.q, fl.n, fl.type.dims) != (first.q, first.n, first.type.dims):
                raise TypeMismatch("flags of mixed q/n/type in one code")
            unique.setdefault(fl)
        if first is None:
            raise ValueError("a flag code needs at least one flag")
        self.q = first.q
        self.n = first.n
        self.type = first.type
        self.flags: tuple[Flag, ...] = tuple(unique)
        self._profiles: tuple[tuple[int, ...], ...] | None = None

    def __len__(self):
        return len(self.flags)

    def __iter__(self) -> Iterator[Flag]:
        return iter(self.flags)

    @property
    def is_full(self) -> bool:
        return self.type.is_full


def pair_profiles(c: FlagCode) -> tuple[tuple[int, ...], ...]:
    """Distance profiles of all unordered pairs of distinct flags, in the
    order (0,1), (0,2), ..., (1,2), ...; a code is immutable, so they are
    computed on first use and kept."""
    if c._profiles is None:
        flags = c.flags
        c._profiles = tuple(pair_distance_profile(flags[a], flags[b])
                            for a in range(len(flags))
                            for b in range(a + 1, len(flags)))
    return c._profiles


def min_distance(c: FlagCode) -> int:
    """Minimum pairwise flag distance; 0 for a singleton code."""
    if len(c) < 2:
        return 0
    return min(sum(p) for p in pair_profiles(c))


def codistance(c: FlagCode) -> int:
    """D^n - d_f(C), defined for full flag codes only."""
    if not c.is_full:
        raise NotFullFlag(f"codistance needs a full code, got type {c.type.dims}")
    return max_distance(c.n) - min_distance(c)


def projected_code(c: FlagCode, i: int) -> tuple[Subspace, ...]:
    """C_i = {p_i(F) : F in C}, deduplicated (first-seen order)."""
    if not 1 <= i <= c.type.length:
        raise IndexOutOfRange(f"i={i} not in [1, {c.type.length}]")
    seen: dict[Subspace, None] = {}
    for fl in c:
        seen.setdefault(fl.subspaces[i - 1])
    return tuple(seen)


def projected_distance(c: FlagCode, i: int) -> int:
    """Minimum injection distance of C_i; 0 if C_i is a singleton.

    Computed directly from the canonical bases on the list kernel: each U
    is seeded once from its stored RREF and every later V is reduced
    against it, so this never shares code with the profile sweeps.
    """
    subs = projected_code(c, i)
    if len(subs) < 2:
        return 0
    best = c.n
    for a, u in enumerate(subs[:-1]):
        seeded = RowSpace.from_rref(c.q, c.n, u.basis)
        for v in subs[a + 1:]:
            # d_I = max(dim) - dim(U ∩ V) = dim(U + V) - min(dim)
            best = min(best, _seeded_dim_sum(seeded, v) - min(u.dim, v.dim))
    return best


# ---------------------------------------------------------------------------
# Random generators for the verification suites.
# ---------------------------------------------------------------------------

def random_invertible_matrix(q: int, n: int, rng: random.Random) -> MatGFq:
    """Uniform-ish invertible n x n matrix by row-wise rejection."""
    space = RowSpace(q, n)
    rows = []
    while len(rows) < n:
        row = [rng.randrange(q) for _ in range(n)]
        if space.add(row):
            rows.append(tuple(row))
    return MatGFq(q, tuple(rows))


def random_full_flag(q: int, n: int, rng: random.Random) -> Flag:
    return flag_from_matrix(q, n, TypeVector.full(n),
                            random_invertible_matrix(q, n, rng))


def random_full_flag_code(q: int, n: int, size: int,
                          rng: random.Random) -> FlagCode:
    """A full flag code with exactly *size* distinct flags.

    F_q^n has prod_{i=1}^{n} (q^i - 1)/(q - 1) full flags; a larger *size*
    raises ValueError.
    """
    available = prod((q ** i - 1) // (q - 1) for i in range(1, n + 1))
    if size > available:
        raise ValueError(f"F_{q}^{n} has {available} full flags, "
                         f"not {size}")
    unique: dict[Flag, None] = {}
    while len(unique) < size:
        unique.setdefault(random_full_flag(q, n, rng))
    return FlagCode(unique)
