"""Exact linear algebra over prime fields F_q.

Subspaces of F_q^n are stored by their reduced row-echelon basis with zero
rows stripped; RREF is canonical, so subspace equality is plain structural
equality and projected-code cardinality becomes a set size.  Intersection
dimensions are always obtained through the rank identity
dim(U) + dim(V) - dim(U+V), never through explicit intersection bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .errors import AmbientMismatch, ColumnCountMismatch

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


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_q; primality is checked at construction."""

    q: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"q = {self.q} is not prime")

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero element."""
        if a % self.q == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, self.q - 2, self.q)


@dataclass(frozen=True)
class MatGFq:
    """An immutable matrix over F_q with entries reduced to [0, q)."""

    q: int
    entries: tuple[Row, ...]

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"q = {self.q} is not prime")
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        for r in self.entries:
            for e in r:
                if not 0 <= e < self.q:
                    raise ValueError(f"entry {e} not reduced mod {self.q}")

    @classmethod
    def make(cls, q: int, rows: Iterable[Iterable[int]]) -> "MatGFq":
        """Build a matrix, reducing every entry mod q."""
        return cls(q, tuple(tuple(e % q for e in r) for r in rows))

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


# ---------------------------------------------------------------------------
# Row reduction.  The workers below operate on plain lists of int tuples so
# the hot incremental paths (flag construction, pairwise distance profiles)
# avoid object overhead.
# ---------------------------------------------------------------------------

def _reduce_row(row: Sequence[int], pivots: list[tuple[int, Row]],
                q: int) -> Sequence[int]:
    """*row* reduced against the pivot rows (pivot col, row); the input is
    returned as it is when no pivot column of it is nonzero."""
    for col, prow in pivots:
        c = row[col]
        if c:
            row = [(a - c * b) % q for a, b in zip(row, prow)]
    return row


class RowSpace:
    """A row space built incrementally, kept in reduced row-echelon form."""

    __slots__ = ("q", "n", "pivots")

    def __init__(self, q: int, n: int):
        self.q = q
        self.n = n
        # list of (pivot column, row tuple), sorted by pivot column
        self.pivots: list[tuple[int, Row]] = []

    @classmethod
    def from_rref(cls, q: int, n: int, basis: Sequence[Row]) -> "RowSpace":
        """A RowSpace seeded from a basis that is already canonical RREF.

        Only checks the form, with no elimination: every row has n entries
        and a leading 1, the pivots strictly increase, and each pivot
        column is zero in every other row.  Raises ValueError otherwise.
        The rows below a pivot are zero in its column by their leading
        zeros, so only that column of the rows above is read.
        """
        space = cls(q, n)
        prev = -1
        for row in basis:
            col = row.index(1) if len(row) == n and 1 in row else -1
            if (col <= prev or any(row[:col])
                    or any([r[col] for _, r in space.pivots])):
                raise ValueError(f"basis is not in canonical RREF: {basis}")
            space.pivots.append((col, tuple(row)))
            prev = col
        return space

    def add(self, row: Sequence[int]) -> bool:
        """Add a row; return True iff the rank grew."""
        q = self.q
        r = _reduce_row([e % q for e in row], self.pivots, q)
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

    def contains(self, row: Sequence[int]) -> bool:
        r = _reduce_row([e % self.q for e in row], self.pivots, self.q)
        return not any(r)


def rref_rows(rows: Iterable[Sequence[int]], q: int) -> tuple[tuple[Row, ...], int]:
    """RREF of raw rows: (nonzero rows of the RREF, rank)."""
    rows = list(rows)
    if not rows:
        return (), 0
    space = RowSpace(q, len(rows[0]))
    for row in rows:
        space.add(row)
    return space.basis(), space.rank


def rref(m: MatGFq) -> tuple[MatGFq, int]:
    """The unique reduced row-echelon form of m and its rank.

    The returned matrix has the same shape as m (zero rows kept at the
    bottom); the row space is preserved.
    """
    basis, rank = rref_rows(m.entries, m.q)
    zero = tuple([0] * m.n_cols)
    padded = basis + tuple(zero for _ in range(m.n_rows - rank))
    return MatGFq(m.q, padded), rank


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^n in canonical (RREF, zero rows stripped) form."""

    q: int
    ambient_n: int
    basis: tuple[Row, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def subspace_from_rows(q: int, n: int,
                       rows: MatGFq | Iterable[Iterable[int]]) -> Subspace:
    """Span of the given rows as a canonical Subspace of F_q^n."""
    if isinstance(rows, MatGFq):
        raw: Iterable[Iterable[int]] = rows.entries
    else:
        raw = rows
    raw = [tuple(e % q for e in r) for r in raw]
    for r in raw:
        if len(r) != n:
            raise ColumnCountMismatch(f"expected {n} columns, got {len(r)}")
    basis, _ = rref_rows(raw, q)
    return Subspace(q, n, basis)


def _check_compatible(u: Subspace, v: Subspace) -> None:
    if u.q != v.q or u.ambient_n != v.ambient_n:
        raise AmbientMismatch(
            f"F_{u.q}^{u.ambient_n} vs F_{v.q}^{v.ambient_n}")


def _residual_rank(pivots: list[tuple[int, Row]], rows: Iterable[Sequence[int]],
                   q: int, cap: int | None = None) -> int:
    """dim(U + span(rows)) - dim U for U given by its RREF *pivots*: the rank
    of the rows reduced against U, by forward elimination only (own pivots
    keyed by leading column, scaled to a leading 1, no back-substitution).
    Stops once the rank reaches *cap*."""
    own: dict[int, Sequence[int]] = {}
    for row in rows:
        if len(own) == cap:
            break
        r = _reduce_row(row, pivots, q)
        for col in range(len(r)):
            c = r[col]
            if c:
                p = own.get(col)
                if p is None:
                    inv = pow(c, q - 2, q)
                    own[col] = [e * inv % q for e in r]
                    break
                r = [(a - c * b) % q for a, b in zip(r, p)]
    return len(own)


def dim_sum(u: Subspace, v: Subspace) -> int:
    """dim(U + V), reducing V's basis against U's stored RREF."""
    _check_compatible(u, v)
    seeded = RowSpace.from_rref(u.q, u.ambient_n, u.basis)
    return u.dim + _residual_rank(seeded.pivots, v.basis, u.q)


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
# Exhaustive enumeration of G_q(k, n), used by the verification suites.
# ---------------------------------------------------------------------------

def grassmannian(q: int, n: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces of F_q^n, one canonical basis each.

    Enumerates RREF matrices directly: choose the pivot columns, then fill
    every free entry (right of its pivot, outside pivot columns).
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        yield Subspace(q, n, ())
        return
    for pivots in combinations(range(n), k):
        free = [(r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, n)
                if c not in pivots]
        for values in product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), val in zip(free, values):
                rows[r][c] = val
            yield Subspace(q, n, tuple(tuple(r) for r in rows))
