import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagcomb.flags as flags_module
import flagcomb.gfq_linalg as linalg_module
from flagcomb import (dim_intersection, dim_sum, grassmannian,
                      injection_distance, subspace_distance, subspace_from_rows)
from flagcomb.durfee_analysis import analyze
from flagcomb.errors import (AmbientMismatch, ColumnCountMismatch,
                             RankDeficient)
from flagcomb.flags import (Flag, TypeVector, _pack, _recheck_nesting,
                            flag_from_matrix, random_full_flag,
                            random_full_flag_code)
from flagcomb.gfq_linalg import (MR_EXACT_BELOW, PACKED_Q, RowSpace,
                                 Subspace, _pack_row, is_contained, is_prime,
                                 chain_levels, chain_path, require_prime,
                                 residual_rank, span_chain)


# ---------------------------------------------------------------------------
# Field basics
# ---------------------------------------------------------------------------

def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13}
    for q in range(-3, 15):
        assert is_prime(q) == (q in primes)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_inverse_exhaustive(q):
    """RowSpace.add scales a new row by the inverse of its leading entry."""
    for a in range(1, q):
        space = RowSpace(q, 2)
        space.add([a, 1])
        (row,) = space.basis()
        assert row[0] == 1 and (a * row[1]) % q == 1


def test_nonprime_field_rejected():
    for q in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError, match=f"q = {q} is not prime"):
            require_prime(q)
    for q in (2, 3, 13):
        require_prime(q)


def test_inverse_of_zero():
    """An entry that is 0 mod q is never taken as a pivot to invert."""
    space = RowSpace(5, 2)
    assert space.add([0, 0]) is False
    assert space.add([5, 10]) is False
    assert space.add([5, 3]) is True
    assert space.basis() == ((0, 1),)


def test_matrix_entries_reduced():
    """subspace_from_rows reduces entries mod q and checks every row's
    width, not only the first."""
    u = subspace_from_rows(3, 2, [[4, -1], [8, 7]])  # (1, 2) and 2(1, 2)
    assert u.basis == ((1, 2),)
    with pytest.raises(ColumnCountMismatch):
        subspace_from_rows(3, 2, [[0, 1], [1]])  # ragged


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
    u = subspace_from_rows(2, 3, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert u.dim == 2
    assert u.basis == ((1, 0, 1), (0, 1, 1))


def test_rref_idempotent_and_shape_preserving():
    rng = random.Random(7)
    for q in (2, 3, 5):
        for _ in range(50):
            rows = [[rng.randrange(q) for _ in range(4)]
                    for _ in range(rng.randint(1, 5))]
            u = subspace_from_rows(q, 4, rows)
            assert u.dim <= len(rows)
            assert all(len(r) == 4 for r in u.basis)
            assert _is_rref(u.basis, q)
            assert subspace_from_rows(q, 4, u.basis) == u


@given(st.integers(0, 1).map(lambda i: (2, 3)[i]),
       st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                min_size=1, max_size=5),
       st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_rref_invariant_under_row_operations(q, rows, rnd):
    """The RREF basis depends only on the row space."""
    u = subspace_from_rows(q, 3, rows)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    # add a random multiple of another row to the first row
    if len(shuffled) > 1:
        c = rnd.randrange(q)
        shuffled[0] = [(a + c * b) % q
                       for a, b in zip(shuffled[0], shuffled[1])]
    v = subspace_from_rows(q, 3, shuffled)
    assert u.basis == v.basis and u.dim == v.dim


def test_rowspace_incremental_rank():
    space = RowSpace(2, 3)
    assert space.add([1, 1, 0]) is True
    assert space.add([1, 1, 0]) is False
    assert space.add([0, 0, 1]) is True
    assert space.rank == 2
    assert space.add([1, 1, 1]) is False
    assert space.add([1, 0, 0]) is True


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
    """Subspaces of F_2^3 and of F_2^4, F_3^3 or F_5^3, in either order, in
    dim_sum, is_contained and residual_rank: another n could read as
    contained (residual rank 0), another q would fail on the other kernel's
    rows; each raises AmbientMismatch."""
    u = subspace_from_rows(2, 3, [[1, 0, 0]])
    for q, n in ((2, 4), (3, 3), (5, 3)):
        v = subspace_from_rows(q, n, [[0, 1] + [0] * (n - 2)])
        for check in (dim_sum, is_contained, residual_rank):
            for a, b in ((u, v), (v, u)):
                with pytest.raises(AmbientMismatch):
                    check(a, b)


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


@pytest.mark.parametrize("q, n, k, match", [
    (2, 5.0, 2, "n must be an int"), (2, 5, -1, "k=-1 not in"),
    (4, 3, 1, "q = 4 is not prime")])
def test_grassmannian_checks_its_arguments_at_the_call(q, n, k, match):
    """The checks run when grassmannian is called, not at the first step
    of the generator it returns."""
    with pytest.raises(ValueError, match=match):
        grassmannian(q, n, k)


def test_equal_rows_over_other_fields_are_other_subspaces():
    """A Subspace hashes its rows alone, so subspaces of F_5^n and F_7^n
    with the same rows hash equal; they still compare unequal, and a set
    keeps both.  So do packed rows that are equal in F_2^3 and F_2^4."""
    for rows in ((), ((1, 0, 0),), ((1, 0, 3), (0, 1, 4))):
        five, seven = Subspace(5, 3, rows), Subspace(7, 3, rows)
        assert five.rows == seven.rows and hash(five) == hash(seven)
        assert five != seven and seven != five
        assert len({five, seven}) == 2 and len({five, seven, five}) == 2
        assert {five, seven} == {Subspace(7, 3, rows), Subspace(5, 3, rows)}
    narrow = Subspace(2, 3, ((1, 0, 0),))
    wide = Subspace(2, 4, ((0, 1, 0, 0),))
    assert narrow.rows == wide.rows and narrow != wide
    assert len({narrow, wide}) == 2


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
    """RowSpace.add gives each enumerated RREF basis back unchanged, and a
    Subspace built from it keeps it."""
    for s in grassmannian(3, 4, 2):
        space = RowSpace(3, 4)
        assert all(map(space.add, s.basis))
        assert space.basis() == s.basis and space.rank == 2
        assert Subspace(3, 4, s.basis).basis == s.basis
    assert Subspace(2, 3, ()).dim == 0


@pytest.mark.parametrize("basis", [
    ((0, 1, 0), (1, 0, 0)),      # pivots not increasing
    ((2, 0, 0),),                # leading entry not 1
    ((1, 1, 0), (0, 1, 0)),      # pivot column not cleared above
    ((1, 0, 0), (1, 1, 0)),      # pivot column not cleared below
    ((0, 0, 0),),                # zero row
    ((1, 0),),                   # wrong width
    ((0, 2, 1), (0, 0, 1)),      # nonzero entry before the leading 1
    ((2, 1, 0),),                # leading 2, then a nonzero entry
    ((1, 9, 0),),                # an entry >= q
    ((1, -3, 0),),               # a negative entry
    ((1.0, 0, 0),),              # a float entry equal to an int
    ((1, 0.5, 0),),              # a float entry
    ((1, "a", 0),),              # a str entry
    (("1", "0", "0"),),          # str digits
])
def test_rowspace_from_rref_rejects_non_canonical(basis):
    for q in (2, 3, 5, 7):  # a Subspace checks its basis at every q
        with pytest.raises(ValueError):
            Subspace(q, 3, basis)


def _rref_form(s):
    """(rows, mask) read off s's basis: the rows in pivot-column order,
    packed digit by digit for q = 2, 3, and the OR of the pivot bits, the
    first nonzero column of each row, column 0 in the top bit."""
    q, n = s.q, s.ambient_n
    rows = tuple(_digit_pack(q, r) if q in PACKED_Q else r for r in s.basis)
    return rows, sum(1 << (n - 1 - next(c for c, e in enumerate(r) if e))
                     for r in s.basis)


def _stacked_rank(u, v):
    """dim(U + V) by eliminating every row of both bases from scratch."""
    return subspace_from_rows(u.q, u.ambient_n, u.basis + v.basis).dim


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
def test_dim_sum_residuals_equal_stacked_rank(q, n):
    """dim_sum and residual_rank on every pair of subspaces of F_q^n, with U
    and V taken both as built from their bases and as an extend chain of
    them."""
    subs = [s for k in range(n + 1) for s in grassmannian(q, n, k)]
    kept = {}
    for u in subs:
        built = Subspace(q, n, ())
        for row in u.basis:
            built = built.extend(row)
        assert built == u and (built.rows, built.mask) == _rref_form(u)
        kept[u] = built
    for u, v in itertools.product(subs, repeat=2):
        stacked = _stacked_rank(u, v)
        assert dim_sum(u, v) == stacked
        assert residual_rank(u, v) == stacked - u.dim
        assert residual_rank(kept[u], kept[v]) == stacked - u.dim


# ---------------------------------------------------------------------------
# Subspace's round trip accepts exactly the canonical RREF bases
# ---------------------------------------------------------------------------

def _transposing_check(n, basis):
    """Canonical RREF by a check of its own: leading 1s in increasing
    columns, and each pivot column, read off the transposed basis, zero in
    every other row."""
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
            Subspace(3, n, basis)
            ok = True
        except ValueError:
            ok = False
        assert ok == _transposing_check(n, basis), basis
        accepted += ok
    assert accepted > 100


# ---------------------------------------------------------------------------
# The packed kernel (q = 2, 3) against the list kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 5, 7, 131, 2 ** 61 - 1])
def test_flag_subspaces_equal_the_list_kernel_on_each_prefix(q):
    """Every F_i of a flag equals subspace_from_rows on the first t_i rows
    of its generator: equal both ways and hashed equal before its basis is
    read, then with RowSpace's basis (which subspace_from_rows keeps); the
    rows and mask a flag keeps equal those read off its basis, packed for
    q = 2, 3, and those of a Subspace built from it."""
    rng = random.Random(q)
    sizes = ([2, 3, 4, 7] if q > 7 else [2, 3, 4, 7, 12, 20]
             + ([33, 48] if q < 5 else []))
    for n in sizes:
        for full in (True, False):
            k = n - 1 if full else rng.randint(1, n - 1)
            dims = tuple(sorted(rng.sample(range(1, n), k)))
            rows = random_full_flag(q, n, rng).generator
            flag = flag_from_matrix(q, n, TypeVector(n, dims), rows)
            for t, s in zip(dims, flag.subspaces):
                ref = subspace_from_rows(q, n, rows[:t])
                assert s == ref and ref == s and hash(s) == hash(ref)
                assert s.dim == ref.dim == t
                assert s.basis == ref.basis
                rebuilt = Subspace(q, n, s.basis)
                assert ((s.rows, s.mask) == _rref_form(s)
                        == (rebuilt.rows, rebuilt.mask))


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
def test_packed_residual_rank_equals_the_list_kernel(q, n):
    """The packed direct path over one level, U's rows then V's, against
    residual_rank on the list kernel, on every pair of subspaces of F_q^n;
    U and V are taken both as built from their bases and as an extend
    chain of them."""
    subs = [s for k in range(n + 1) for s in grassmannian(q, n, k)]
    kept = {}
    for u in subs:
        built = Subspace(q, n, ())
        for row in u.basis:
            built = built.extend(row)
        assert built == u and (built.rows, built.mask) == _rref_form(u)
        kept[u] = built
    for u, v in itertools.product(subs, repeat=2):
        expected = residual_rank(u, v)
        assert expected == _stacked_rank(u, v) - u.dim
        for a, b in ((u, v), (kept[u], kept[v])):
            path = chain_path(q, n, (u.dim,), chain_levels((a,)),
                              chain_levels((b,)))
            assert path == (expected,)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 131, 2 ** 61 - 1])
def test_extend_chain_equals_the_list_kernel_on_each_prefix(q):
    """Every prefix of an extend chain of random rows (dependent ones
    included) equals subspace_from_rows on the same rows in ==, hash,
    rows, mask and basis; extending by a row already in the span, or by a
    combination of the basis, gives an equal subspace.  q = 131 and
    2^61 - 1 reach inverses by pow and entries past one byte."""
    rng = random.Random(170 + q)
    for n in ([1, 2, 3, 5, 8] if q > 7 else
              [1, 2, 3, 5, 8, 16] + ([48] if q == 2 else [])):
        rows = [[rng.randrange(q) if rng.random() < 0.7 else 0
                 for _ in range(n)] for _ in range(n + 3)]
        rows[n // 2] = list(rows[0])         # a repeat, already in the span
        chain = Subspace(q, n, ())
        for k, row in enumerate(rows, start=1):
            chain = chain.extend(row)
            ref = subspace_from_rows(q, n, rows[:k])
            assert chain == ref and ref == chain and hash(chain) == hash(ref)
            assert ((chain.rows, chain.mask) == (ref.rows, ref.mask)
                    == _rref_form(ref) and chain.dim == ref.dim)
            assert chain.basis == ref.basis
            again = chain.extend(rows[rng.randrange(k)])
            assert again == chain
            assert (again.rows, again.mask) == (chain.rows, chain.mask)
            if chain.dim:
                coeffs = [rng.randrange(q) for _ in chain.basis]
                mixed = [sum(c * e for c, e in zip(coeffs, col)) % q
                         for col in zip(*chain.basis)]
                assert chain.extend(mixed) == chain


def test_extend_leaves_the_extended_subspace_unchanged():
    """extend returns a new subspace: the one extended keeps its rows and
    mask, at packed and at list q."""
    for q in (2, 3, 5):
        base = subspace_from_rows(q, 3, [[1, 0, 0]])
        form, rows = (base.rows, base.mask), base.basis
        grown = base.extend([0, 1, 1])
        assert grown.dim == 2 and base.dim == 1
        assert (base.rows, base.mask) == form and base.basis == rows


@pytest.mark.parametrize("q", [2, 3, 5])
def test_extend_and_add_reject_a_row_of_another_length(q):
    """A short or long row raises, where it was read shifted by a column
    or gave a basis row of the wrong length."""
    for row in ([1, 0], [1, 0, 0, 0]):
        with pytest.raises(ColumnCountMismatch, match="expected 3 columns"):
            Subspace(q, 3, ()).extend(row)
        with pytest.raises(ColumnCountMismatch, match="expected 3 columns"):
            RowSpace(q, 3).add(row)
        with pytest.raises(ColumnCountMismatch, match="expected 3 columns"):
            subspace_from_rows(q, 3, [row])


@pytest.mark.parametrize("q", [2, 3, 5])
def test_extend_takes_entries_in_range_or_reduces_them(q):
    """An entry outside range(q) is an error for the packed q = 2, 3,
    where 10 would read as two digits; larger q reduce it mod q, as
    RowSpace.add and subspace_from_rows do."""
    for row in ([10, 0, 0], [-1, 0, 0], [0, q, 0]):
        if q in PACKED_Q:
            with pytest.raises(ValueError):
                Subspace(q, 3, ()).extend(row)
        else:
            assert (Subspace(q, 3, ()).extend(row)
                    == subspace_from_rows(q, 3, [row]))


def _digit_pack(q, row):
    """A row packed digit by digit: the int of its bits for q = 2, the
    (ones, twos) bit-planes for q = 3."""
    planes = [sum(1 << (len(row) - 1 - c) for c, e in enumerate(row) if e == d)
              for d in (1, 2)]
    return planes[0] if q == 2 else tuple(planes)


@pytest.mark.parametrize("q,n_max", [(2, 8), (3, 5)])
def test_both_packers_equal_a_digit_by_digit_reference(q, n_max):
    """_pack_row and flags._pack, which share no code, on every row of
    F_q^n for n up to n_max."""
    for n in range(1, n_max + 1):
        rows = list(itertools.product(range(q), repeat=n))
        expected = [_digit_pack(q, r) for r in rows]
        assert [_pack_row(q, r) for r in rows] == expected
        assert list(_pack(q, rows)) == expected


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("entry", [9, 10, 32, 48, 95, 255, 256, -1, "q", 1.0])
def test_both_packers_reject_an_entry_outside_range_q(q, entry):
    """int() strips blanks (9, 10, 32), reads "_" (95) between digits and
    reads bytes 48-57 as digits, so a table that left such a byte as it is
    would pack a bad entry; bytes() rejects -1 and 256, and a float."""
    entry = q if entry == "q" else entry
    for row in ([entry], [entry, 0, 1], [1, entry, 0], [1, 0, entry]):
        with pytest.raises((ValueError, TypeError)):
            _pack_row(q, row)
        with pytest.raises((ValueError, TypeError)):
            _pack(q, [row])


@pytest.mark.parametrize("q", [1, 4, 6])
def test_public_entry_points_require_a_prime_q(q):
    """Over Z/4 a row [2, 1] would be stored as a zero pivot, since 2 has
    no inverse; each entry point raises before any row is reduced."""
    calls = [lambda: subspace_from_rows(q, 2, [[1, 1]]),
             lambda: subspace_from_rows(q, 2, [[2, 1], [0, 2]]),
             lambda: Subspace(q, 2, ((1, 0),)),
             lambda: Subspace(q, 2, ()),
             lambda: next(grassmannian(q, 2, 1))]
    for call in calls:
        with pytest.raises(ValueError, match=f"q = {q} is not prime"):
            call()


@pytest.mark.parametrize("q", [2, 3, 5])
def test_nesting_recheck_rejects_a_hand_built_flag(q):
    """F_1 = <e_3> is not inside F_2 = <e_1, e_2>: the recheck raises on
    bases packed afresh and on bases a flag construction kept."""
    tv = TypeVector(3, (1, 2))
    rows = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    small = subspace_from_rows(q, 3, rows[:1])
    big = subspace_from_rows(q, 3, rows[1:])
    with pytest.raises(RankDeficient):
        _recheck_nesting(Flag(q, 3, tv, rows, (small, big)))
    kept_small = flag_from_matrix(q, 3, tv, rows).subspaces[0]
    kept_big = flag_from_matrix(q, 3, tv, rows[1:]).subspaces[1]
    assert (kept_small, kept_big) == (small, big)
    with pytest.raises(RankDeficient):
        _recheck_nesting(Flag(q, 3, tv, rows, (kept_small, kept_big)))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_nesting_recheck_rejects_two_equal_consecutive_subspaces(q):
    """F_1 = F_2 = <e_1>: each lies inside the other, so only the check
    that the dimensions strictly increase can raise."""
    tv = TypeVector(3, (1, 2))
    rows = ((1, 0, 0), (0, 1, 0))
    line = subspace_from_rows(q, 3, rows[:1])
    with pytest.raises(RankDeficient,
                       match="^dimensions do not strictly increase$") as exc:
        _recheck_nesting(Flag(q, 3, tv, rows, (line, line)))
    assert exc.value.prefix == 1


def _inside(u, v):
    """U ⊆ V by the list kernel: stacking U's basis on V's adds no rank."""
    return subspace_from_rows(u.q, u.ambient_n, v.basis + u.basis).dim == v.dim


def _type(n, dims):
    return TypeVector.full(n) if dims is None else TypeVector(n, dims)


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (5, 3)])
def test_is_contained_equals_the_list_kernel(q, n):
    """is_contained on every pair of subspaces of F_q^n, of any two
    dimensions, against RowSpace's rank; then with V's stored rows no longer
    reduced (each plus a multiple of a row below it, so the span and the
    pivot keys stay), it never passes a U outside V."""
    rng = random.Random(q * n)
    subs = [s for k in range(n + 1) for s in grassmannian(q, n, k)]
    for u, v in itertools.product(subs, repeat=2):
        assert is_contained(u, v) == _inside(u, v)
    for v in subs:
        rows = [list(r) for r in v.basis]
        for i, j in itertools.combinations(range(len(rows)), 2):
            c = rng.randrange(1, q)
            rows[i] = [(a + c * b) % q for a, b in zip(rows[i], rows[j])]
        mixed = Subspace(q, n, rows=tuple(
            _pack_row(q, r) if q in PACKED_Q else tuple(r) for r in rows),
            mask=v.mask)
        for u in subs:
            assert not is_contained(u, mixed) or _inside(u, v)


def _steps_of_two_and_three(n):
    """The type (2, 5, 7, 10, ...) of F_q^n: steps of codimension 2 and 3."""
    dims = itertools.accumulate(itertools.cycle((2, 3)))
    return TypeVector(n, tuple(itertools.takewhile(lambda t: t < n, dims)))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [16, 32])
def test_is_contained_on_general_type_chains(q, n):
    """Steps of codimension 2 and 3, past one machine word at n = 32:
    is_contained agrees with the list kernel on every pair of subspaces of
    two flags.  Each step F_i ⊆ F_{i+1} fails with a row planted at a pivot
    F_{i+1} lacks, and with e_c added to a row of F_i, c right of the row's
    pivot and no pivot of F_{i+1}, so that the pivots stay."""
    rng, tv = random.Random(f"contained/{q}/{n}"), _steps_of_two_and_three(n)
    f, g = (flag_from_matrix(q, n, tv, random_full_flag(q, n, rng).generator)
            for _ in range(2))
    for u, v in itertools.product(f.subspaces + g.subspaces, repeat=2):
        assert is_contained(u, v) == _inside(u, v)
    shifted = 0
    for small, big in zip(f.subspaces, f.subspaces[1:]):
        free = [c for c in range(n) if not big.mask >> (n - 1 - c) & 1]
        c = rng.choice(free)
        unit = tuple(int(j == c) for j in range(n))
        planted = subspace_from_rows(q, n, small.basis + (unit,))
        assert planted.mask & ~big.mask
        assert not is_contained(planted, big) and not _inside(planted, big)
        rows = [list(r) for r in small.basis]
        for r in rows:
            right = [c for c in free if c > r.index(1)]
            if right:
                c = rng.choice(right)
                r[c] = (r[c] + rng.randrange(1, q)) % q
                break
        else:
            continue
        planted = Subspace(q, n, tuple(map(tuple, rows)))
        assert planted.mask == small.mask
        assert not is_contained(planted, big) and not _inside(planted, big)
        shifted += 1
    assert shifted == len(tv.dims) - 1


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("dims", [None, (1, 3, 5)], ids=["full", "135"])
def test_nesting_recheck_catches_a_planted_subspace(q, dims):
    """A Flag built directly with F_i swapped for another flag's F_i, or for
    F_{i-1} plus one row outside F_{i+1}, raises RankDeficient("... not
    nested") exactly when the list kernel finds a step that does not nest;
    n = 7, where type (1, 3, 5) has codim-2 steps."""
    n, rng, caught = 7, random.Random(300 + q), 0
    tv = _type(n, dims)
    for _ in range(4):
        f, g = (flag_from_matrix(q, n, tv, random_full_flag(q, n, rng).generator)
                for _ in range(2))
        for i, t in enumerate(tv.dims):
            planted = [g.subspaces[i]]
            if 0 < i < len(tv.dims) - 1:
                above = f.subspaces[i + 1]
                row = next(r for r in ([rng.randrange(q) for _ in range(n)]
                                       for _ in itertools.count())
                           if above.extend(r) != above)
                planted.append(subspace_from_rows(
                    q, n, f.generator[:t - 1] + (tuple(row),)))
            for sub in planted:
                subs = f.subspaces[:i] + (sub,) + f.subspaces[i + 1:]
                flag = Flag(q, n, tv, f.generator, subs)
                if all(map(_inside, subs, subs[1:])):
                    _recheck_nesting(flag)
                    continue
                caught += 1
                with pytest.raises(RankDeficient, match="not nested"):
                    _recheck_nesting(flag)
    assert caught >= 4 * len(tv.dims)


def _list_chain(q, n, rows):
    """The span of each prefix of *rows* on the list kernel."""
    space, chain = RowSpace(q, n), []
    for r in rows:
        space.add(r)
        chain.append(Subspace(q, n, space.basis()))
    return chain


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("dims", [None, (1, 3, 5)], ids=["full", "135"])
def test_a_dependent_row_ends_the_chain(q, dims):
    """Row k a combination of rows 1..k-1 (zero included), or of rows
    j+1..k-1 only, all past t_last = j: span_chain ends before it with the
    list kernel's k - 1 spans, also when it builds only the first spans,
    and flag_from_matrix, which reads every row, raises RankDeficient(k).
    Rows past the spans are kept in echelon form only, so the second input
    is reduced right only if x & mask is read again after each step; n = 7,
    and n = 33 at q = 2, 3, past one machine word of a packed row."""
    for n in (7, 33) if q in PACKED_Q else (7,):
        rng = random.Random(400 + q if n == 7 else f"{q}/{n}")
        t_last = _type(n, dims).dims[-1]
        for k in range(1, n + 1):
            rows = list(random_full_flag(q, n, rng).generator)
            starts = {0} | ({rng.randrange(1, k - 1)} if k > 2 else set())
            if t_last < k - 1:
                starts.add(t_last)
            for j in sorted(starts):    # j > 0: no coefficient is zero
                coeffs = [rng.randrange(bool(j), q) for _ in range(j, k - 1)]
                rows[k - 1] = tuple(
                    sum(c * e for c, e in zip(coeffs, col)) % q
                    for col in zip(*rows[j:k - 1] or [[0] * n]))
                chain = span_chain(Subspace(q, n, ()), rows)
                assert chain == _list_chain(q, n, rows[:k - 1])
                # past the spans, only independence is read
                for spans in (range(n + 1) if n == 7
                              else {0, j, j + 1, k - 1, n}):
                    assert (span_chain(Subspace(q, n, ()), rows, spans)
                            == chain[:spans] + [None] * (len(chain) - spans))
                with pytest.raises(RankDeficient) as exc:
                    flag_from_matrix(q, n, _type(n, dims), rows)
                assert exc.value.prefix == k


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("dims", [None, (1, 3, 5)], ids=["full", "135"])
def test_flag_from_matrix_builds_no_span_past_the_type(q, dims, monkeypatch):
    """On n independent rows, flag_from_matrix builds one Subspace for the
    empty start and one for each of F_1, ..., F_{t_last}: no F_n of a full
    flag, nor any span past t_last."""
    n, rng = 7, random.Random(700 + q)
    rows = random_full_flag(q, n, rng).generator
    built, init = [], Subspace.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.dim)

    monkeypatch.setattr(Subspace, "__init__", counted)
    tv = _type(n, dims)
    flag = flag_from_matrix(q, n, tv, rows)
    assert built == list(range(tv.dims[-1] + 1))
    assert [s.dim for s in flag.subspaces] == list(tv.dims)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_extend_is_one_chain_step(q):
    """s.extend(row) is span_chain(s, [row])'s one span, or equals s when
    the chain is empty because the row is in s, in ==, rows, mask and dim."""
    rng = random.Random(500 + q)
    for n in (1, 3, 6, 9):
        s = Subspace(q, n, ())
        for _ in range(2 * n + 2):
            row = [rng.randrange(q) for _ in range(n)]
            if s.dim and rng.random() < 0.4:     # a row already in s
                coeffs = [rng.randrange(q) for _ in s.basis]
                row = [sum(c * e for c, e in zip(coeffs, col)) % q
                       for col in zip(*s.basis)]
            step, grown = span_chain(s, [row]), s.extend(row)
            expected = step[0] if step else s
            assert len(step) == grown.dim - s.dim <= 1
            assert grown == expected
            assert (grown.rows, grown.mask) == (expected.rows, expected.mask)
            s = grown


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_nesting_recheck_never_calls_the_chain_builder(q, monkeypatch):
    """_recheck_nesting on prebuilt flags, with span_chain (and so
    Subspace.extend), residual_rank and the direct path made to raise: it
    passes the nested flags and still catches a swapped subspace, so the
    check cannot come to call the kernel it checks, nor one that relies on
    the nesting it checks."""
    rng = random.Random(600 + q)
    tv = TypeVector(7, (1, 3, 5))
    built = [random_full_flag(q, 7, rng) for _ in range(2)]
    built.append(flag_from_matrix(q, 7, tv, built[1].generator))
    f, g = built[:2]
    subs = f.subspaces[:2] + g.subspaces[2:3] + f.subspaces[3:]
    assert not all(map(_inside, subs, subs[1:]))
    swapped = Flag(q, 7, f.type, f.generator, subs)

    def boom(*args, **kwargs):
        raise AssertionError("the nesting recheck called a kernel it checks")

    for module in (linalg_module, flags_module):
        for name in ("span_chain", "residual_rank", "chain_levels",
                     "chain_path"):
            monkeypatch.setattr(module, name, boom, raising=False)
    for flag in built:
        _recheck_nesting(flag)
    with pytest.raises(RankDeficient, match="not nested"):
        _recheck_nesting(swapped)


@pytest.mark.parametrize("q", [5, 7, 131])
def test_no_flag_is_built_on_the_list_kernel(q, monkeypatch):
    """With RowSpace.add made to raise, flag_from_matrix (full type and
    (1, 3, 5)), Subspace.extend and random_full_flag at q >= 5 give the
    subspaces they gave without the patch, in ==, rows and mask: the chain
    is not built on the reference it is tested against."""
    n = 7

    def build():
        rng = random.Random(800 + q)
        flag = random_full_flag(q, n, rng)
        subs = list(flag.subspaces)
        for dims in (None, (1, 3, 5)):
            subs += flag_from_matrix(q, n, _type(n, dims),
                                     flag.generator).subspaces
        s = Subspace(q, n, ())
        for row in flag.generator[:3] + flag.generator[:2]:
            s = s.extend(row)
            subs.append(s)
        return subs

    def boom(self, row):
        raise AssertionError("RowSpace.add ran")

    before = build()
    monkeypatch.setattr(RowSpace, "add", boom)
    after = build()
    assert after == before
    assert [(s.rows, s.mask) for s in after] == [(s.rows, s.mask)
                                                 for s in before]


# ---------------------------------------------------------------------------
# The packed RREF as the identity of a q = 2, 3 subspace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
def test_packed_identity_is_equality_of_rref_bases_on_g_q_4(q):
    """Over every pair of subspaces of F_q^4, of any two dimensions, two
    subspaces are equal iff their RREF bases are, both as enumerated and
    as rebuilt by extend from a scrambled spanning set; equal ones hash
    equal."""
    rng = random.Random(q)
    subs = [s for k in range(5) for s in grassmannian(q, 4, k)]
    rebuilt = []
    for s in subs:
        space = Subspace(q, 4, ())
        for _ in range(s.dim + 2):
            coeffs = [rng.randrange(q) for _ in s.basis]
            row = ([sum(c * e for c, e in zip(coeffs, col)) % q
                    for col in zip(*s.basis)] if s.dim else [0] * 4)
            space = space.extend(row)
        for row in s.basis:
            space = space.extend(row)
        rebuilt.append(space)
    for s, r in zip(subs, rebuilt):
        assert r == s and hash(r) == hash(s)
        assert r._basis is None and r.basis == s.basis
    for (a, ra), (b, rb) in itertools.product(zip(subs, rebuilt), repeat=2):
        same = a.basis == b.basis
        assert (a == b) == (ra == rb) == (ra == b) == same
        assert not same or hash(ra) == hash(b)


@pytest.mark.parametrize("q", [2, 3])
def test_analyze_never_unpacks_a_basis(q):
    """analyze on a seeded q = 2, 3 code (n = 13) compares, hashes and ranks
    subspaces on their packed RREF alone: afterwards no subspace of the
    code has unpacked its basis, and reading it then gives RowSpace's
    (subspace_from_rows keeps the basis RowSpace made)."""
    code = random_full_flag_code(q, 13, 8, random.Random(150 + q))
    report = analyze(code)
    assert report.size == 8 and not report.no_pairs
    subs = [s for f in code for s in f.subspaces]
    assert all(s._basis is None for s in subs)
    for f in code:
        for t, s in enumerate(f.subspaces, start=1):
            ref = subspace_from_rows(q, 13, f.generator[:t])
            assert s.basis == ref.basis
