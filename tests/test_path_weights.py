"""A closed-form count of full flags per distance path, as an oracle.

Fix a full flag F of F_q^n.  The number of full flags G whose distance
path against F is p = (δ_0, ..., δ_n) is W_q(p), the product over the
steps of p, with m = δ before the step, of

- q^(2m+1) for a step up,
- [m]_q^2 for a step down,
- q^(2m) + 2·q^m·[m]_q for a level step,

where [m]_q = 1 + q + ... + q^(m-1).  Why: G is F moved by a permutation
σ (the Bruhat cell of G), and there are q^ℓ(σ) flags in that cell.  Grow
the permutation matrix of σ one row and one column at a time: δ_i is the
number of rows <= i whose column is > i, and ℓ(σ) counts the cells with no
1 to their left in their row and none above in their column.  Each step
adds an L-shaped strip whose cells carry these weights, summed over the
ways to place the new row and column.

Summed over all paths, W_q gives [n]_q!, the number of full flags, and n!
at q = 1.  The exhaustive check builds every full flag as a chain of
subspaces from grassmannian by containment, not through flag_from_matrix.
"""

import random
from collections import Counter
from math import factorial, prod

import pytest

from flagcomb import (Subspace, TypeVector, enumerate_paths,
                      flag_from_matrix, grassmannian, path_from_flag_pair)
from flagcomb.flags import Flag, pair_distance_profile
from flagcomb.gfq_linalg import (chain_levels, chain_path, is_contained,
                                 residual_rank)

from conftest import standard_flag


def _q_int(q, m):
    """[m]_q = 1 + q + ... + q^(m-1); m at q = 1."""
    return sum(q ** k for k in range(m))


def _q_factorial(q, n):
    """[n]_q! = [1]_q [2]_q ... [n]_q, the number of full flags of F_q^n."""
    return prod(_q_int(q, i) for i in range(1, n + 1))


def _step_weight(q, m, step):
    if step > 0:
        return q ** (2 * m + 1)
    if step < 0:
        return _q_int(q, m) ** 2
    return q ** (2 * m) + 2 * q ** m * _q_int(q, m)


def _path_weight(q, deltas):
    """W_q(p), one factor per step."""
    return prod(_step_weight(q, a, b - a) for a, b in zip(deltas, deltas[1:]))


def _weight_sums(q, n_max):
    """The sums of W_q(p) over all paths of length n, for n = 1..n_max, by
    a DP over (i, δ_i): the sum for n is the weight at δ_n = 0 after n
    steps.  No path is listed: δ_0 = δ_n = 0 and steps of at most 1 already
    keep δ_i <= min(i, n - i)."""
    row, sums = {0: 1}, []
    for _ in range(n_max):
        nxt = Counter()
        for m, w in row.items():
            for step in (-1, 0, 1):
                if m + step >= 0:
                    nxt[m + step] += w * _step_weight(q, m, step)
        row = nxt
        sums.append(row[0])
    return sums


@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_path_weights_sum_to_the_number_of_full_flags(q):
    flags = [factorial(n) if q == 1 else _q_factorial(q, n)
             for n in range(1, 61)]
    assert _weight_sums(q, 60) == flags


def _full_flags(q, n):
    """Every full flag of F_q^n, from its chain F_1 ⊊ ... ⊊ F_{n-1} of
    grassmannian subspaces, each containing the last.  Its generator takes
    from each F_i (F_n = F_q^n) the first basis row outside F_{i-1}."""
    chains = [()]
    for k in range(1, n):
        level = list(grassmannian(q, n, k))
        chains = [c + (v,) for c in chains for v in level
                  if not c or is_contained(c[-1], v)]
    whole = next(grassmannian(q, n, n))
    flags = []
    for chain in chains:
        rows, below = [], Subspace(q, n, ())
        for space in (*chain, whole):
            rows.append(next(r for r in space.basis
                             if below.extend(r).dim > below.dim))
            below = space
        flags.append(Flag(q, n, TypeVector.full(n), tuple(rows), chain))
    return flags


@pytest.mark.parametrize("q, n", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4),
                                  (5, 3)])
def test_path_weights_count_the_flags_at_each_path(q, n):
    """Tally every full flag by its path against the coordinate flag and
    against a random flag: each tally is W_q(p) at every path p.  Each flag
    rebuilt from its generator by flag_from_matrix (one span_chain and the
    nesting recheck) equals the chain it came from."""
    flags = _full_flags(q, n)
    assert len(set(flags)) == len(flags) == _q_factorial(q, n)
    for g in flags:
        assert flag_from_matrix(q, n, TypeVector.full(n), g.generator) == g
    want = {p.deltas: _path_weight(q, p.deltas) for p in enumerate_paths(n)}
    for f in (standard_flag(q, n), random.Random(q * n).choice(flags)):
        tally = Counter(path_from_flag_pair(f, g).deltas for g in flags)
        assert tally == want


@pytest.mark.parametrize("q, n", [(2, 3), (2, 4), (3, 3)])
def test_every_pair_has_one_path_by_sweep_and_by_residual_rank(q, n):
    """Over every pair of full flags, the sweep's path (which stops once
    F_t + G_t = F_q^n) equals residual_rank(F_t, G_t) at each t, and the
    direct path: one incremental rank over the two canonical chains."""
    flags = _full_flags(q, n)
    dims = tuple(range(1, n))
    levels = {f: chain_levels(f.subspaces) for f in flags}
    for a, f in enumerate(flags):
        for g in flags[a:]:
            pairs = list(zip(f.subspaces, g.subspaces))
            path = pair_distance_profile(f, g)
            assert path == tuple(residual_rank(u, v) for u, v in pairs)
            assert path == chain_path(q, n, dims, levels[f], levels[g])
