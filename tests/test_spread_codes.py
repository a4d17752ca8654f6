"""analyze on flag codes built from the Desarguesian spread, against
answers that need no linear algebra.

Let n = 2k and F_q^n = GF(q^k)².  The spread elements S_a = {(x, a·x)} for
a in GF(q^k), and S_∞ = {(0, x)}, pairwise meet in 0 and span F_q^n.  A
flag on S_a has a basis of S_a, in an inner order u, as its first k rows
and the rows (0, e_j) as its last k; a flag on S_∞ ends in the rows
(e_j, 0).  Two flags on different elements have the maximum path
δ_i = min(i, n - i): for i <= k their F_i lie in two elements, and for
i >= k they contain both.  Two flags on one element, with inner orders u
and w, have δ_i = i - |u[:i] ∩ w[:i]| for i <= k and 0 after.  One flag per
element is an optimum distance code of q^k + 1 flags; several inner orders
per element give mixed codes.  One random invertible matrix applied to
every flag keeps all of this and makes the generators dense.
"""

import random
from itertools import combinations, permutations, product

import pytest

from flagcomb import FlagCode, TypeVector, analyze, flag_from_matrix
from flagcomb.support_paths import paths_of_code

from test_permutation_oracle import _invertible


def _poly_mod(f, g, q):
    """f mod g over F_q, coefficients low to high; g monic."""
    f = list(f)
    for top in range(len(f) - 1, len(g) - 2, -1):
        c = f[top]
        if c:
            for j, gj in enumerate(g):
                f[top - len(g) + 1 + j] = (f[top - len(g) + 1 + j]
                                           - c * gj) % q
    return f[:len(g) - 1]


def _irreducible(q, k):
    """The first monic polynomial of degree k over F_q with no monic factor
    of degree 1..k/2, by exhaustive search."""
    for low in product(range(q), repeat=k):
        f = [*low, 1]
        if all(any(_poly_mod(f, [*g, 1], q))
               for d in range(1, k // 2 + 1)
               for g in product(range(q), repeat=d)):
            return f
    raise AssertionError(f"no irreducible polynomial of degree {k}")


def _spread_rows(q, k, f, a):
    """A basis of S_a, (t^j, a·t^j) for j < k, with a a coefficient tuple
    of GF(q^k) = F_q[t]/(f); None stands for ∞, whose basis is (0, t^j)."""
    unit = [[int(c == j) for c in range(k)] for j in range(k)]
    if a is None:
        return [[0] * k + e for e in unit]
    rows, v = [], list(a)
    for e in unit:
        rows.append(e + v)
        top = v[-1]                     # v <- t·v mod f
        v = [(lo - top * fj) % q for lo, fj in zip([0] + v[:-1], f)]
    return rows


def _spread_code(q, k, orders, rng):
    """The full code of a flag per (element, inner order) in *orders*, a
    map from each element (a coefficient tuple, or None for ∞) to its inner
    orders, all under one random invertible matrix."""
    n = 2 * k
    f, mat = _irreducible(q, k), _invertible(q, n, rng)
    unit = [[int(c == j) for c in range(k)] for j in range(k)]
    flags = []
    for a, inner in orders.items():
        basis = _spread_rows(q, k, f, a)
        tail = [e + [0] * k for e in unit] if a is None else \
            [[0] * k + e for e in unit]
        for u in inner:
            rows = [basis[j] for j in u] + tail
            rows = [[sum(x * y for x, y in zip(row, col)) % q
                     for col in zip(*mat)] for row in rows]
            flags.append(flag_from_matrix(q, n, TypeVector.full(n), rows))
    code = FlagCode(flags)
    assert len(code) == len(flags)
    return code


def _elements(q, k):
    return [*product(range(q), repeat=k), None]


# ---------------------------------------------------------------------------
# One flag per element: optimum codes of q^k + 1 flags
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, k", [(2, k) for k in range(2, 9)]
                         + [(3, 2), (3, 3), (3, 4), (5, 2)])
def test_one_flag_per_spread_element_is_optimum(q, k):
    n = 2 * k
    rng = random.Random(1000 * q + k)
    identity = [tuple(range(k))]
    code = _spread_code(q, k, dict.fromkeys(_elements(q, k), identity), rng)
    assert len(code) == q ** k + 1
    top = tuple(min(i, n - i) for i in range(n + 1))
    assert {p.deltas for p in paths_of_code(code)} == {top}
    report = analyze(code)
    assert (report.d_f, report.codistance, report.optimum) == (k * k, 0, True)
    assert dict(report.projected) == {i: (len(code), min(i, n - i))
                                      for i in range(1, n)}


# ---------------------------------------------------------------------------
# Several inner orders per element: mixed codes
# ---------------------------------------------------------------------------

def _oracle(n, k, orders):
    """Γ(C) as delta tuples, d_f and {i: (|C_i|, d_I(C_i))} from the
    elements and inner orders alone."""
    flags = [(a, u) for a, inner in orders.items() for u in inner]
    paths = set()
    for (a, u), (b, w) in combinations(flags, 2):
        paths.add(tuple(min(i, n - i) if a != b else
                        i - len(set(u[:i]) & set(w[:i])) if i <= k else 0
                        for i in range(n + 1)))
    projected = {}
    for i in range(1, n):
        if i <= k:
            keys = {(a, frozenset(u[:i])) for a, u in flags}
            gaps = [i if a != b else i - len(x & y)
                    for (a, x), (b, y) in combinations(keys, 2)]
        else:
            keys = {a for a, _ in flags}
            gaps = [n - i] * (len(keys) > 1)
        projected[i] = (len(keys), min(gaps, default=0))
    return paths, min(map(sum, paths)), projected


@pytest.mark.parametrize("q, k, elements, per_element, seed", [
    (2, 3, 4, 3, 1), (2, 4, 17, 5, 2), (3, 3, 10, 4, 3),
    (3, 4, 20, 5, 4), (5, 2, 26, 2, 5)])
def test_mixed_spread_codes_meet_the_oracle(q, k, elements, per_element,
                                            seed):
    n = 2 * k
    rng = random.Random(seed)
    every = list(permutations(range(k)))
    orders = {a: rng.sample(every, per_element)
              for a in rng.sample(_elements(q, k), elements)}
    code = _spread_code(q, k, orders, rng)
    assert len(code) == elements * per_element
    paths, d_f, projected = _oracle(n, k, orders)
    assert {p.deltas for p in paths_of_code(code)} == paths
    report = analyze(code)
    assert report.d_f == d_f
    assert dict(report.projected) == projected
