import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcomb import (MatGFq, PrimeField, Subspace, dim_intersection, dim_sum,
                      grassmannian, injection_distance, rref,
                      subspace_distance, subspace_from_rows)
from flagcomb.errors import AmbientMismatch, ColumnCountMismatch
from flagcomb.gfq_linalg import MR_EXACT_BELOW, RowSpace, is_prime, rref_rows


# ---------------------------------------------------------------------------
# Field basics
# ---------------------------------------------------------------------------

def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13}
    for q in range(-3, 15):
        assert is_prime(q) == (q in primes)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_inverse_exhaustive(q):
    f = PrimeField(q)
    for a in range(1, q):
        assert (a * f.inv(a)) % q == 1


def test_nonprime_field_rejected():
    for q in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError):
            PrimeField(q)
    with pytest.raises(ValueError):
        MatGFq.make(4, [[1, 0]])


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


def test_matrix_entries_reduced():
    m = MatGFq.make(3, [[4, -1], [9, 5]])
    assert m.entries == ((1, 2), (0, 2))
    assert (m.n_rows, m.n_cols) == (2, 2)
    with pytest.raises(ValueError):
        MatGFq(3, ((0, 1), (1,)))  # ragged
    with pytest.raises(ValueError):
        MatGFq(3, ((0, 5),))  # not reduced


# ---------------------------------------------------------------------------
# Row reduction
# ---------------------------------------------------------------------------

def _is_rref(rows, q):
    """Direct structural check of the reduced row-echelon property."""
    pivots = []
    for row in rows:
        nz = [i for i, e in enumerate(row) if e % q]
        if not nz:
            continue
        col = nz[0]
        if pivots and col <= pivots[-1]:
            return False
        if row[col] % q != 1:
            return False
        pivots.append(col)
    for col in pivots:
        if sum(1 for row in rows if row[col] % q) != 1:
            return False
    return True


def test_rref_known_case():
    m = MatGFq.make(2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    red, rank = rref(m)
    assert rank == 2
    assert red.entries == ((1, 0, 1), (0, 1, 1), (0, 0, 0))


def test_rref_idempotent_and_shape_preserving():
    rng = random.Random(7)
    for q in (2, 3, 5):
        for _ in range(50):
            rows = [[rng.randrange(q) for _ in range(4)]
                    for _ in range(rng.randint(1, 5))]
            m = MatGFq.make(q, rows)
            red, rank = rref(m)
            assert red.n_rows == m.n_rows and red.n_cols == m.n_cols
            assert _is_rref(red.entries, q)
            again, rank2 = rref(red)
            assert again == red and rank2 == rank


@given(st.integers(0, 1).map(lambda i: (2, 3)[i]),
       st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                min_size=1, max_size=5),
       st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_rref_invariant_under_row_operations(q, rows, rnd):
    """The RREF basis depends only on the row space."""
    basis, rank = rref_rows(rows, q)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    # add a random multiple of another row to the first row
    if len(shuffled) > 1:
        c = rnd.randrange(q)
        shuffled[0] = [(a + c * b) % q
                       for a, b in zip(shuffled[0], shuffled[1])]
    basis2, rank2 = rref_rows(shuffled, q)
    assert basis == basis2 and rank == rank2


def test_rowspace_incremental_rank():
    space = RowSpace(2, 3)
    assert space.add([1, 1, 0]) is True
    assert space.add([1, 1, 0]) is False
    assert space.add([0, 0, 1]) is True
    assert space.rank == 2
    assert space.contains([1, 1, 1])
    assert not space.contains([1, 0, 0])


# ---------------------------------------------------------------------------
# Subspaces and distances
# ---------------------------------------------------------------------------

def test_subspace_canonical_equality():
    u = subspace_from_rows(2, 3, [[1, 1, 0], [0, 1, 1]])
    v = subspace_from_rows(2, 3, [[1, 0, 1], [0, 1, 1]])
    assert u == v and u.dim == 2


def test_subspace_column_mismatch():
    with pytest.raises(ColumnCountMismatch):
        subspace_from_rows(2, 3, [[1, 0]])


def test_ambient_mismatch():
    u = subspace_from_rows(2, 3, [[1, 0, 0]])
    v = subspace_from_rows(2, 4, [[1, 0, 0, 0]])
    with pytest.raises(AmbientMismatch):
        dim_sum(u, v)


def test_distance_small_examples():
    e1 = subspace_from_rows(2, 2, [[1, 0]])
    e2 = subspace_from_rows(2, 2, [[0, 1]])
    assert dim_intersection(e1, e2) == 0
    assert injection_distance(e1, e2) == 1
    assert subspace_distance(e1, e2) == 2
    assert injection_distance(e1, e1) == 0

    plane = subspace_from_rows(3, 3, [[1, 0, 0], [0, 1, 0]])
    line = subspace_from_rows(3, 3, [[0, 0, 1]])
    assert injection_distance(plane, line) == 2
    assert subspace_distance(plane, line) == 3


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("q,n,k", [(2, 3, 1), (2, 4, 2), (2, 4, 3),
                                   (3, 3, 1), (3, 4, 1), (2, 4, 0)])
def test_grassmannian_count_and_canonical_form(q, n, k):
    subs = list(grassmannian(q, n, k))
    assert len(subs) == _gaussian_binomial(n, k, q)
    assert len(set(subs)) == len(subs)
    for s in subs:
        assert s.dim == k
        assert subspace_from_rows(q, n, s.basis) == s


def test_injection_distance_is_a_metric():
    """Triangle inequality and symmetry, exhaustively on G_2(2, 4)."""
    subs = list(grassmannian(2, 4, 2))
    d = {}
    for u, v in itertools.combinations(subs, 2):
        d[u, v] = d[v, u] = injection_distance(u, v)
        assert d[u, v] > 0
    for u in subs:
        d[u, u] = 0
    for u, v, w in itertools.combinations(subs, 3):
        assert d[u, w] <= d[u, v] + d[v, w]


def test_subspace_distance_doubles_injection_at_equal_dims():
    subs = list(grassmannian(3, 4, 2))
    for u, v in itertools.combinations(subs, 2):
        assert subspace_distance(u, v) == 2 * injection_distance(u, v)


# ---------------------------------------------------------------------------
# Primality, seeded row spaces and the residual dim_sum
# ---------------------------------------------------------------------------

def _trial_division_is_prime(q):
    return q >= 2 and all(q % d for d in range(2, int(q ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    for q in range(-3, 5000):
        assert is_prime(q) == _trial_division_is_prime(q), q


@pytest.mark.parametrize("q,expected", [
    (2 ** 61 - 1, True),                      # Mersenne prime
    (2 ** 31 - 1, True),
    (561, False),                             # Carmichael number
    (3215031751, False),                      # strong pseudoprime to 2..7
    (318665857834031151167461, False),        # ... to the first 12 primes
])
def test_is_prime_large_values(q, expected):
    assert is_prime(q) is expected


def test_is_prime_refuses_beyond_exact_range():
    with pytest.raises(ValueError):
        is_prime(MR_EXACT_BELOW)
    with pytest.raises(ValueError):
        is_prime(2 ** 89 - 1)


def test_rowspace_from_rref_matches_incremental_build():
    for s in grassmannian(3, 4, 2):
        seeded = RowSpace.from_rref(3, 4, s.basis)
        assert seeded.basis() == s.basis and seeded.rank == 2
    assert RowSpace.from_rref(2, 3, ()).rank == 0


@pytest.mark.parametrize("basis", [
    ((0, 1, 0), (1, 0, 0)),      # pivots not increasing
    ((2, 0, 0),),                # leading entry not 1
    ((1, 1, 0), (0, 1, 0)),      # pivot column not cleared above
    ((1, 0, 0), (1, 1, 0)),      # pivot column not cleared below
    ((0, 0, 0),),                # zero row
    ((1, 0),),                   # wrong width
    ((0, 2, 1), (0, 0, 1)),      # nonzero entry before the leading 1
])
def test_rowspace_from_rref_rejects_non_canonical(basis):
    with pytest.raises(ValueError):
        RowSpace.from_rref(3, 3, basis)


def _stacked_rank(u, v):
    """dim(U + V) by eliminating every row of both bases from scratch."""
    return rref_rows(u.basis + v.basis, u.q)[1]


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
def test_dim_sum_residuals_equal_stacked_rank(q, n):
    subs = [s for k in range(n + 1) for s in grassmannian(q, n, k)]
    for u, v in itertools.product(subs, repeat=2):
        assert dim_sum(u, v) == _stacked_rank(u, v)


# ---------------------------------------------------------------------------
# RowSpace.from_rref checks each pivot column on its own
# ---------------------------------------------------------------------------

def _transposing_check(n, basis):
    """The form check as it read with the whole basis transposed."""
    prev = -1
    cols = []
    for row in basis:
        col = row.index(1) if len(row) == n and 1 in row else -1
        if col <= prev or any(row[:col]):
            return False
        cols.append(col)
        prev = col
    columns = list(zip(*basis))
    return all(columns[col].count(0) == len(basis) - 1 for col in cols)


def test_from_rref_accepts_and_rejects_as_the_transposing_check():
    rng = random.Random(3)
    accepted = 0
    for _ in range(3000):
        n, k = rng.randint(1, 4), rng.randint(0, 3)
        basis = tuple(tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
                      for _ in range(k))
        try:
            RowSpace.from_rref(3, n, basis)
            ok = True
        except ValueError:
            ok = False
        assert ok == _transposing_check(n, basis), basis
        accepted += ok
    assert accepted > 100
