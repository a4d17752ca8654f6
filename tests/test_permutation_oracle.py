"""analyze on coordinate flags under one change of basis, against an
oracle that needs no linear algebra.

The coordinate flag F^w of a permutation w has F^w_i = span(e_{w(1)}, ...,
e_{w(i)}), so dim(F^u_i ∩ F^w_i) = |{u(1..i)} ∩ {w(1..i)}|: a pair's path
is δ_i = i - |{u(1..i)} ∩ {w(1..i)}|, and F^u_i = F^w_i exactly when the
two prefix sets are equal.  One invertible A applied to every flag keeps
all of this and makes the generators dense: F^w A is generated by the rows
of A in the order w.  Every field of analyze follows from the paths and
the prefix sets.  Three families reach what random codes miss at this n:
codes that share their prefix sets at common cuts, so some C_i is a
singleton, and keep one block in base order in several flags, so some C_i
has a repeat; optimum codes; and plateau-heavy codes, whose separability
hypotheses all fail.
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


def _moves(n, size, rng):
    """*size* distinct permutations: a random base order, and each later
    one the base with one entry moved at least n/2 places, the first of
    them the base rotated by one.  Every pair's path stays within 2 of 0,
    so it is mostly plateaus."""
    base = rng.sample(range(n), n)
    perms = [tuple(base), tuple(base[1:] + base[:1])]
    while len(perms) < size:
        a = rng.randrange(n // 2)
        b = rng.randrange(a + n // 2, n)
        w = base[:a] + base[a + 1:b + 1] + [base[a]] + base[b + 1:]
        if tuple(w) not in perms:
            perms.append(tuple(w))
    return perms


def _oracle(perms, n):
    """Every field of analyze for the code of coordinate flags with basis
    orders *perms*, and Γ(C), from the prefix sets alone.  The Durfee sets
    follow from the paths by the class law: every staircase of a path has
    rectangle size min(i, n - i) - δ_i at dimension i, and D_k holds the
    sizes at i = (n - k)/2.  The bounds are the closed forms: with d_i =
    d_I(C_i), [d_i², D^n - ⌈(i - d_i)(n - i - d_i)/2⌉] where |C_i| = |C|,
    else [0, D^n - ⌈i(n - i)/2⌉]."""
    size = len(perms)
    prefixes = [[frozenset(w[:i]) for i in range(n + 1)] for w in perms]
    paths = [tuple(i - len(a[i] & b[i]) for i in range(n + 1))
             for a, b in combinations(prefixes, 2)]
    d_f = min(map(sum, paths))
    dbar = n * n // 4 - d_f
    projected = {i: (len({p[i] for p in prefixes}),
                     min((d[i] for d in paths if d[i]), default=0))
                 for i in range(1, n)}
    laws = {tuple(min(i, n - i) - d[i] for i in range(1, n)) for d in paths}
    rects = [tuple(sorted(set(col), reverse=True)) for col in zip(*laws)]
    bounds = {i: (d * d, n * n // 4 - -(-(i - d) * (n - i - d) // 2))
              if c == size else (0, n * n // 4 - -(-i * (n - i) // 2))
              for i, (c, d) in projected.items()}
    return set(paths), {
        "size": size, "d_f": d_f, "codistance": dbar, "projected": projected,
        "derived": {i: (c == size, d) for i, (c, d) in projected.items()},
        "durfee_sets": {n - 2 * i: rects[i - 1] for i in range(1, n // 2 + 1)},
        "separability": {i: 2 * dbar < i * (n - i)
                         for i in range(1, n // 2 + 1)},
        "bounds": bounds, "optimum": d_f == n * n // 4,
        "no_pairs": False, "consistent": True,
    }


def _check(q, perms, rng):
    """analyze and Γ(C) of the code {F^w A : w in perms} for one random
    invertible A, against the oracle, every field; returns the oracle's
    paths and fields."""
    n = len(perms[0])
    a = _invertible(q, n, rng)
    code = FlagCode([flag_from_matrix(q, n, TypeVector.full(n),
                                      [a[i] for i in w]) for w in perms])
    gamma, want = _oracle(perms, n)
    report = analyze(code)
    assert {p.deltas for p in paths_of_code(code)} == gamma
    assert vars(report) == {"q": q, "n": n, **want}
    return gamma, want


@pytest.mark.parametrize("n", [24, 48])
@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_analyze_equals_the_permutation_oracle(q, n):
    rng = random.Random(f"perm/{q}/{n}")
    perms = _perms(n, 4, rng)
    _, want = _check(q, perms, rng)
    sizes = [size for size, _ in want["projected"].values()]
    assert 1 in sizes and any(1 < s < len(perms) for s in sizes)


@pytest.mark.parametrize("n", [25, 48])
@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_an_optimum_code_equals_the_permutation_oracle(q, n):
    """F^w and F^(w reversed): their path is the maximum, min(i, n - i) at
    every i, so the code is optimum and every separability hypothesis
    holds."""
    rng = random.Random(f"optimum/{q}/{n}")
    w = tuple(rng.sample(range(n), n))
    gamma, want = _check(q, [w, w[::-1]], rng)
    assert gamma == {tuple(min(i, n - i) for i in range(n + 1))}
    assert want["optimum"] and all(want["separability"].values())


@pytest.mark.parametrize("n", [24, 37])
@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_a_plateau_heavy_code_equals_the_permutation_oracle(q, n):
    """Moved entries: the base order's path to its rotation is (0, 1, ...,
    1, 0), with n - 2 positive plateaus, and to each other flag δ_i = 1 on
    the n/2 or more cuts the moved entry passes, else 0.  No separability
    hypothesis holds."""
    rng = random.Random(f"plateau/{q}/{n}")
    gamma, want = _check(q, _moves(n, 5, rng), rng)

    def positive_plateaus(d):
        return sum(0 < d[i] == d[i + 1] for i in range(n))

    assert max(map(positive_plateaus, gamma)) == n - 2
    assert sum(positive_plateaus(d) >= n // 2 - 1 for d in gamma) >= 4
    assert not any(want["separability"].values())
    assert any(len(sizes) > 1 for sizes in want["durfee_sets"].values())
