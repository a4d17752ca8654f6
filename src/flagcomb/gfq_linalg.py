"""Exact linear algebra over prime fields F_q.

Subspaces of F_q^n are stored by their reduced row-echelon basis with zero
rows stripped; RREF is canonical, so subspace equality is plain structural
equality and projected-code cardinality becomes a set size.  Intersection
dimensions are always obtained through the rank identity
dim(U) + dim(V) - dim(U+V), never through explicit intersection bases.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from operator import index
from typing import Iterable, Iterator, Sequence

from .errors import AmbientMismatch, ColumnCountMismatch, check_int

Row = tuple[int, ...]


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below psi_13, the least number that is a strong pseudoprime to all of them
# (Sorenson & Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Exact for q < MR_EXACT_BELOW (about 3.3e24); a larger q raises
    ValueError, since the test would no longer be a proof.
    """
    if q < 2:
        return False
    for p in _MR_BASES:
        if q % p == 0:
            return q == p
    if q < 43 * 43:
        return True
    if q >= MR_EXACT_BELOW:
        raise ValueError(f"q = {q} is too large: primality is decided "
                         f"only below {MR_EXACT_BELOW}")
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def require_prime(q: int) -> None:
    """Raise ValueError unless q is a prime int, before anything is drawn or
    allocated for F_q."""
    if not is_prime(check_int("q", q)):
        raise ValueError(f"q = {q} is not prime")


# ---------------------------------------------------------------------------
# Row reduction on lists of ints: the reference that defines canonical form,
# and that the chain below is tested against.  No flag is built on it.
# ---------------------------------------------------------------------------

class RowSpace:
    """A row space built incrementally, kept in reduced row-echelon form."""

    __slots__ = ("q", "n", "pivots")

    def __init__(self, q: int, n: int):
        self.q, self.n = q, n
        # list of (pivot column, row tuple), sorted by pivot column
        self.pivots: list[tuple[int, Row]] = []

    def add(self, row: Sequence[int]) -> bool:
        """Add a row of n int entries, reduced mod q (TypeError on a float or
        str); True iff the rank grew.  Another length: ColumnCountMismatch."""
        q, n = self.q, self.n
        r = [index(e) % q for e in row]
        if len(r) != n:
            raise ColumnCountMismatch(f"expected {n} columns, got {len(r)}")
        for pcol, prow in self.pivots:
            if c := r[pcol]:
                r = [(a - c * b) % q for a, b in zip(r, prow)]
        col = next((i for i, e in enumerate(r) if e), -1)
        if col < 0:
            return False
        inv = pow(r[col], q - 2, q)
        r = [(e * inv) % q for e in r]
        # clear the new pivot column from the existing rows
        updated = []
        for pcol, prow in self.pivots:
            c = prow[col]
            if c:
                prow = tuple((a - c * b) % q for a, b in zip(prow, r))
            updated.append((pcol, prow))
        updated.append((col, tuple(r)))
        updated.sort(key=lambda t: t[0])
        self.pivots = updated
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def basis(self) -> tuple[Row, ...]:
        return tuple(row for _, row in self.pivots)


class Subspace:
    """A subspace of F_q^n in canonical form: its RREF *rows* in pivot order
    (packed for q = 2, 3, tuples for q >= 5) and *mask*, the OR of the
    pivot bits, column 0 in the top bit, so the row at pivot bit b is
    rows[(mask & -b).bit_count() - 1].  A basis is taken only if RowSpace
    gives it back unchanged, the one definition of canonical form; else, a
    wrong width, a non-int entry, q or ambient_n too, ValueError.  Equality
    and hashing read the rows; a packed basis is unpacked on first read."""

    __slots__ = ("q", "ambient_n", "rows", "mask", "_basis")

    def __init__(self, q: int, ambient_n: int,
                 basis: Sequence[Row] | None = None,
                 rows: tuple | None = None, mask: int = 0):
        self.q, self.ambient_n, self.rows, self.mask = q, ambient_n, rows, mask
        self._basis = None if q in PACKED_Q else rows
        if rows is None:
            require_prime(q)
            space = RowSpace(q, check_int("ambient_n", ambient_n, 0))
            try:
                basis = tuple(map(tuple, basis))
                canonical = all(map(space.add, basis)) and space.basis() == basis
            except (TypeError, ColumnCountMismatch):
                canonical = False
            if not canonical:
                raise ValueError(f"basis is not in canonical RREF: {basis}")
            self._basis = self.rows = space.basis()
            self.mask = sum(1 << (ambient_n - 1 - c) for c, _ in space.pivots)
            if q in PACKED_Q:
                self.rows = tuple([_pack_row(q, r) for r in self._basis])

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.rows == other.rows
                and (self.q, self.ambient_n) == (other.q, other.ambient_n))

    def __hash__(self):
        return hash(self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[Row, ...]:
        if self._basis is None:     # for q = 3, plane digits add in base 10
            n = self.ambient_n
            digits = (format(x, f"0{n}b") if self.q == 2 else format(
                int(format(x[0], "b")) + 2 * int(format(x[1], "b")), f"0{n}d")
                for x in self.rows)
            self._basis = tuple(tuple(map(int, d)) for d in digits)
        return self._basis

    def extend(self, row: Sequence[int]) -> "Subspace":
        """One step of span_chain: the span of this subspace and *row*."""
        chain = span_chain(self, (row,))
        return chain[0] if chain else Subspace(self.q, self.ambient_n,
                                               rows=self.rows, mask=self.mask)


def subspace_from_rows(q: int, n: int,
                       rows: Iterable[Iterable[int]]) -> Subspace:
    """Span of the given rows as a canonical Subspace of F_q^n, built on
    the list kernel at every q: the reference that the chains of
    Subspace.extend are tested against.  Every row must have n
    entries; RowSpace.add reduces them mod q."""
    require_prime(q)
    space = RowSpace(q, check_int("n", n, 0))
    for r in rows:
        space.add(r)
    return Subspace(q, n, space.basis())


def residual_rank(u: Subspace, v: Subspace) -> int:
    """dim(U + V) - dim U: U's canonical basis, then V's, added to one
    RowSpace, on the list kernel at every q."""
    if u.ambient_n != v.ambient_n or u.q != v.q:
        raise AmbientMismatch(
            f"F_{u.q}^{u.ambient_n} vs F_{v.q}^{v.ambient_n}")
    space = RowSpace(u.q, u.ambient_n)
    return sum(map(space.add, u.basis + v.basis)) - u.dim


def dim_sum(u: Subspace, v: Subspace) -> int:
    """dim(U + V), by residual_rank."""
    return u.dim + residual_rank(u, v)


def dim_intersection(u: Subspace, v: Subspace) -> int:
    """dim(U ∩ V) via dim U + dim V - dim(U+V); exact by the modular law."""
    return u.dim + v.dim - dim_sum(u, v)


def injection_distance(u: Subspace, v: Subspace) -> int:
    """max(dim U, dim V) - dim(U ∩ V)."""
    return max(u.dim, v.dim) - dim_intersection(u, v)


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """dim(U+V) - dim(U ∩ V); equals 2 * injection distance at equal dims."""
    return dim_sum(u, v) - dim_intersection(u, v)


# ---------------------------------------------------------------------------
# Packed kernel for q = 2, 3, column 0 in the top bit: an int per row for q = 2,
# for q = 3 a (ones, twos) pair of bit-planes, where x - p is three ORs and
# three XORs and -p swaps the planes (Kawahara, Aoki & Takagi, 2008).  A packed
# RREF row's top bit is its pivot bit, where its entry is 1.  It shares no
# code with the profile sweeps of flags, which the direct side cross-checks.
# ---------------------------------------------------------------------------

PACKED_Q = (2, 3)


# bytes.translate tables from entries to plane digits: a byte outside range(q)
# maps to ".", which int() rejects; left as it is, it could read as a digit,
# a sign, "_" or blank.
_GF2_BITS = b"01".ljust(256, b".")
_GF3_ONES, _GF3_TWOS = b"010".ljust(256, b"."), b"001".ljust(256, b".")


def _pack_row(q: int, row: Sequence[int]):
    """*row* packed, a bytes row as it is; ValueError unless each entry is
    in range(q), TypeError on an entry that is not an int.  bytes() rejects
    an entry outside range(256), and the table every other outside range(q)."""
    b = bytes(row)
    if q == 2:
        return int(b.translate(_GF2_BITS), 2)
    return int(b.translate(_GF3_ONES), 2), int(b.translate(_GF3_TWOS), 2)


def span_chain(u: Subspace, rows: Iterable[Sequence[int]],
               spans: int | None = None) -> list[Subspace | None]:
    """The spans of U and each prefix of *rows*, ending before the first row
    already in the span before it.  Rows are checked by width, and as
    RowSpace.add checks them at q >= 5, by _pack_row at q = 2, 3.  A row is
    reduced over the kept rows in pivot order (packed: from its top set
    pivot bit, x & mask read again after each step), so echelon rows reduce
    it as RREF rows do.  A kept row, its lead 1, is inserted at its pivot;
    while spans are built it is also cleared from the rows above it.  A row
    past the first *spans* is only inserted and adds None."""
    q, n = u.q, u.ambient_n
    kept, mask, chain = list(u.rows), u.mask, []
    for row in rows:
        if len(row) != n:
            raise ColumnCountMismatch(f"expected {n} columns, got {len(row)}")
        building = spans is None or len(chain) < spans
        if q == 2:
            x = _pack_row(2, row)
            while m := x & mask:
                x ^= kept[(mask & -(1 << m.bit_length() >> 1)).bit_count() - 1]
            if not x:
                break
            b = 1 << x.bit_length() >> 1
            at = (mask & -b).bit_count()    # the rows above b come first
            if building:                    # clear bit b from them
                kept[:at] = [p ^ x if p & b else p for p in kept[:at]]
        elif q == 3:
            lo, hi = _pack_row(3, row)
            while m := (lo | hi) & mask:
                b = 1 << m.bit_length() >> 1
                p = kept[(mask & -b).bit_count() - 1]
                plo, phi = p if lo & b else p[::-1]
                s = (lo | plo) ^ (hi | phi)
                lo, hi = (hi | plo) ^ s, (lo | phi) ^ s
            if not lo | hi:
                break
            b = 1 << (lo | hi).bit_length() >> 1
            x, at = (lo, hi) if lo & b else (hi, lo), (mask & -b).bit_count()
            for i in range(at) if building else ():
                plo, phi = kept[i]
                if (plo | phi) & b:
                    xlo, xhi = x if plo & b else x[::-1]
                    s = (plo | xlo) ^ (phi | xhi)
                    kept[i] = (phi | xlo) ^ s, (plo | xhi) ^ s
        else:                   # each kept row leads with 1 at its pivot
            x = [index(e) % q for e in row]
            for p in kept:
                if c := x[p.index(1)]:
                    x = [(a - c * e) % q for a, e in zip(x, p)]
            col = next((i for i, e in enumerate(x) if e), n)
            if col == n:
                break
            inv, b = pow(x[col], q - 2, q), 1 << (n - 1 - col)
            x, at = tuple([e * inv % q for e in x]), (mask & -b).bit_count()
            for i in range(at) if building else ():
                p = kept[i]
                if c := p[col]:
                    kept[i] = tuple([(a - c * e) % q for a, e in zip(p, x)])
        kept.insert(at, x)
        mask |= b
        chain.append(Subspace(q, n, None, tuple(kept), mask)
                     if building else None)
    return chain


def is_contained(u: Subspace, v: Subspace) -> bool:
    """U ⊆ V iff every pivot of U is a pivot of V, and U's rows, each cleared
    at V's other pivots by V's rows there, equal V's rows at U's pivots.
    V's rows are split by the mask once per call, one popcount per pivot V
    has beyond U's, so a flag step of one dimension costs one XOR or plane
    step per row and a list comparison.  An equality shows each row of U is
    a combination of V's stored rows, so the test is sound for a V that is
    not reduced; it is complete for a canonical U and V."""
    if u.ambient_n != v.ambient_n or u.q != v.q:
        raise AmbientMismatch(
            f"F_{u.q}^{u.ambient_n} vs F_{v.q}^{v.ambient_n}")
    q, mask, umask = v.q, v.mask, u.mask
    m = mask ^ umask
    if not m:                   # the same pivots: U ⊆ V iff U = V
        return u.rows == v.rows
    if m & umask:               # a pivot of U that V lacks
        return False
    xs, own = u.rows, list(v.rows)
    while m:                    # lowest bit first, so the row indices fall
        b = m & -m
        m ^= b
        e, ys = own.pop((mask & -b).bit_count() - 1), []
        if q == 2:
            ys = [x ^ e if x & b else x for x in xs]
        elif q == 3:
            for lo, hi in xs:
                if (lo | hi) & b:
                    elo, ehi = e if lo & b else e[::-1]
                    s = (lo | elo) ^ (hi | ehi)
                    lo, hi = (hi | elo) ^ s, (lo | ehi) ^ s
                ys.append((lo, hi))
        else:
            col = v.ambient_n - b.bit_length()
            for x in xs:
                c = x[col]
                ys.append(tuple([(a - c * f) % q for a, f in zip(x, e)])
                          if c else x)
        xs = ys
    return xs == own


# ---------------------------------------------------------------------------
# The direct path of a flag pair: one incremental rank over two canonical
# chains, sharing no code with the profile sweeps of flags nor with RowSpace.
# ---------------------------------------------------------------------------

def chain_levels(chain: Sequence[Subspace]) -> tuple[tuple, ...]:
    """The stored RREF rows of each U_j of a nested chain U_1 ⊊ U_2 ⊊ ... at
    the pivot bits mask_j & ~mask_{j-1}, the pivots that U_{j-1} lacks.
    Their pivots differ and each row lies in U_j, so in a nested chain the
    first j levels are a basis of U_j."""
    levels, below = [], 0
    for s in chain:
        rows, mask, level = s.rows, s.mask, []
        new = mask & ~below
        while new:
            b = new & -new
            new ^= b
            level.append(rows[(mask & -b).bit_count() - 1])
        levels.append(tuple(level))
        below = mask
    return tuple(levels)


def chain_path(q: int, n: int, dims: Sequence[int], f_levels: Sequence,
               g_levels: Sequence) -> tuple[int, ...]:
    """(dim(F_t + G_t) - t for t in dims), F and G given by chain_levels of
    their chains at dims.  One forward elimination takes the rows of each
    level, F's then G's: each is reduced against the kept rows, keyed by
    leading bit (column for q >= 5), and kept if a residue is left.  Once
    the rank is n no further row is drawn, and each later t reads n - t."""
    own, rank, out = [None] * (n + 1), 0, []
    for t, rows in zip(dims, map(chain, f_levels, g_levels)):
        for x in rows if rank < n else ():
            if q == 2:
                while x:
                    b = x.bit_length()
                    if own[b] is None:
                        own[b], rank = x, rank + 1
                        break
                    x ^= own[b]
            elif q == 3:    # x - p, p negated where x leads with a 2
                lo, hi = x
                while lo | hi:
                    b = (lo | hi).bit_length()
                    lead_one = lo >> (b - 1)
                    if own[b] is None:
                        own[b] = (lo, hi) if lead_one else (hi, lo)
                        rank += 1
                        break
                    plo, phi = own[b] if lead_one else own[b][::-1]
                    s = (lo | plo) ^ (hi | phi)
                    lo, hi = (hi | plo) ^ s, (lo | phi) ^ s
            else:
                for col in range(n):
                    c = x[col]
                    if c and own[col] is None:
                        inv = pow(c, q - 2, q)
                        own[col], rank = [e * inv % q for e in x], rank + 1
                        break
                    if c:
                        x = [(a - c * b) % q for a, b in zip(x, own[col])]
            if rank == n:
                break
        out.append(rank - t)
    return tuple(out)


# ---------------------------------------------------------------------------
# Exhaustive enumeration of G_q(k, n), used by the verification suites.
# ---------------------------------------------------------------------------

def grassmannian(q: int, n: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces of F_q^n, one canonical basis each.

    Enumerates RREF matrices directly: choose the pivot columns, then fill
    every free entry (right of its pivot, outside pivot columns).
    """
    check_int("k", k, 0, check_int("n", n, 0))
    require_prime(q)
    def subspaces() -> Iterator[Subspace]:    # checked above, at the call
        for pivots in combinations(range(n), k):
            free = [(r, c) for r in range(k)
                    for c in range(pivots[r] + 1, n) if c not in pivots]
            for values in product(range(q), repeat=len(free)):
                rows = [[0] * n for _ in range(k)]
                for r, p in enumerate(pivots):
                    rows[r][p] = 1
                for (r, c), val in zip(free, values):
                    rows[r][c] = val
                yield Subspace(q, n, tuple(tuple(r) for r in rows))
    return subspaces()
