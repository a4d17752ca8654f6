"""analyze on coordinate flags under one change of basis, against an
oracle that needs no linear algebra.

The coordinate flag F^w of a permutation w has F^w_i = span(e_{w(1)}, ...,
e_{w(i)}), so dim(F^u_i ∩ F^w_i) = |{u(1..i)} ∩ {w(1..i)}|: a pair's path
is δ_i = i - |{u(1..i)} ∩ {w(1..i)}|, and F^u_i = F^w_i exactly when the
two prefix sets are equal.  One invertible A applied to every flag keeps
all of this and makes the generators dense: F^w A is generated by the rows
of A in the order w.  The codes share their prefix sets at common cuts, so
some C_i is a singleton, and keep one block in base order in several
flags, so some C_i has a repeat; random codes reach neither at this n.
"""

import random
from itertools import combinations

import pytest

from flagcomb import FlagCode, TypeVector, analyze, flag_from_matrix
from flagcomb.support_paths import paths_of_code


def _invertible(q, n, rng):
    """L·U for random unit lower and upper triangular L and U: invertible
    with no elimination, and dense."""
    lower = [[1 if c == r else rng.randrange(q) if c < r else 0
              for c in range(n)] for r in range(n)]
    upper = [[1 if c == r else rng.randrange(q) if c > r else 0
              for c in range(n)] for r in range(n)]
    return [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*upper)]
            for row in lower]


def _perms(n, size, rng):
    """*size* distinct permutations of range(n), each a base order shuffled
    within the blocks between three common cuts.  The first block is
    rotated by one in the first permutation and left in base order in the
    others; every later block is shuffled at random."""
    base = rng.sample(range(n), n)
    cuts = [0] + sorted(rng.sample(range(2, n - 1), 3)) + [n]
    blocks = [base[a:b] for a, b in zip(cuts, cuts[1:])]
    perms = []
    while len(perms) < size:
        w = list(blocks[0][1:] + blocks[0][:1] if not perms else blocks[0])
        for block in blocks[1:]:
            w += rng.sample(block, len(block))
        if tuple(w) not in perms:
            perms.append(tuple(w))
    return perms


def _oracle(perms, n):
    """Γ(C), d_f and the projected table of the code of coordinate flags
    with basis orders *perms*, from the prefix sets alone."""
    prefixes = [[frozenset(w[:i]) for i in range(n + 1)] for w in perms]
    paths = [tuple(i - len(a[i] & b[i]) for i in range(n + 1))
             for a, b in combinations(prefixes, 2)]
    table = {i: (len({p[i] for p in prefixes}),
                 min((d[i] for d in paths if d[i]), default=0))
             for i in range(1, n)}
    return set(paths), min(map(sum, paths)), table


@pytest.mark.parametrize("n", [24, 48])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_analyze_equals_the_permutation_oracle(q, n):
    rng = random.Random(f"perm/{q}/{n}")
    perms = _perms(n, 4, rng)
    a = _invertible(q, n, rng)
    code = FlagCode([flag_from_matrix(q, n, TypeVector.full(n),
                                      [a[i] for i in w]) for w in perms])
    gamma, d_f, table = _oracle(perms, n)
    sizes = [size for size, _ in table.values()]
    assert 1 in sizes and any(1 < s < len(perms) for s in sizes)
    report = analyze(code)
    assert {p.deltas for p in paths_of_code(code)} == gamma
    assert report.d_f == d_f and report.codistance == n * n // 4 - d_f
    assert report.projected == table
