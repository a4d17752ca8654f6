"""The direct side: projected_distance against an exhaustive reference;
the mechanism behind it (one direct path per flag pair, no residual_rank
call, no row drawn once a pair's rank is n); and one build of each code's
table, whichever caller reads it first."""

import itertools
import random
from math import comb

import pytest

import flagcomb.flags as flags_module
import flagcomb.gfq_linalg as gfq_linalg
from flagcomb import (FlagCode, TypeVector, analyze, cli, durfee_analysis,
                      flag_from_matrix, grassmannian, projected_code,
                      projected_distance, rectangle_to_projected)
from flagcomb.flags import random_full_flag, random_full_flag_code
from flagcomb.gfq_linalg import residual_rank, subspace_from_rows


def _reference_projected_distance(code, i):
    """Every pair of C_i, each ranked by eliminating both bases stacked;
    no cap and no early exit.  d_I = dim(U + V) - min(dim U, dim V)."""
    subs = projected_code(code, i)
    if len(subs) < 2:
        return 0
    return min(subspace_from_rows(code.q, code.n, u.basis + v.basis).dim
               - min(u.dim, v.dim)
               for u, v in itertools.combinations(subs, 2))


def _random_codes(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.choice((2, 3, 5))
        n = rng.randint(3, 10)
        yield random_full_flag_code(q, n, rng.randint(2, 12), rng)


def _general_type_codes(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.choice((2, 3, 5))
        n = rng.randint(3, 9)
        dims = sorted(rng.sample(range(1, n), rng.randint(1, n - 2)))
        tv = TypeVector(n, tuple(dims))
        yield FlagCode(flag_from_matrix(q, n, tv,
                                        random_full_flag(q, n, rng).generator)
                       for _ in range(rng.randint(2, 10)))


def _assert_matches_reference(code):
    for i in range(1, code.type.length + 1):
        assert (projected_distance(code, i)
                == _reference_projected_distance(code, i)), (code, i)


@pytest.mark.parametrize("seed", range(6))
def test_projected_distance_matches_reference_on_random_full_codes(seed):
    for code in _random_codes(seed, 12):
        _assert_matches_reference(code)


@pytest.mark.parametrize("seed", range(4))
def test_projected_distance_matches_reference_on_general_types(seed):
    for code in _general_type_codes(100 + seed, 12):
        assert not code.is_full
        _assert_matches_reference(code)


def _identity_row(n, k):
    return [int(c == k) for c in range(n)]


def test_later_pair_closer_than_the_first():
    """At i = 2 the first pair of C_2 is at d_I = 2, a later one at 1."""
    orders = [(0, 1, 2, 3), (2, 3, 0, 1), (0, 2, 1, 3)]
    code = FlagCode(flag_from_matrix(2, 4, TypeVector.full(4),
                                     [_identity_row(4, k) for k in order])
                    for order in orders)
    u, v, w = projected_code(code, 2)
    assert subspace_from_rows(2, 4, u.basis + v.basis).dim - 2 == 2
    assert subspace_from_rows(2, 4, u.basis + w.basis).dim - 2 == 1
    assert projected_distance(code, 2) == 1
    _assert_matches_reference(code)


def _drawing(levels, drawn):
    """*levels* with each row appended to *drawn* as it is drawn."""
    def draw(level):
        for row in level:
            drawn.append(row)
            yield row
    return [draw(level) for level in levels]


def _unpack(q, n, x):
    """A row of chain_levels as a list of entries."""
    if q == 2:
        return [int(e) for e in format(x, f"0{n}b")]
    if q == 3:
        return [int(a) + 2 * int(b) for a, b in zip(format(x[0], f"0{n}b"),
                                                   format(x[1], f"0{n}b"))]
    return list(x)


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
def test_residual_rank_stops_at_the_cap(q, n):
    """The direct path's cap is the rank n: over one level, U's rows then
    V's, on every pair of subspaces of F_q^n, it reads residual_rank (the
    stacked rank less dim U, uncapped), draws every row while the rank
    stays below n, and no row past the one that brings it to n."""
    subs = [s for k in range(n + 1) for s in grassmannian(q, n, k)]
    for u, v in itertools.product(subs, repeat=2):
        full = subspace_from_rows(q, n, u.basis + v.basis).dim - u.dim
        assert residual_rank(u, v) == full
        drawn = []
        path = gfq_linalg.chain_path(
            q, n, (u.dim,), _drawing(gfq_linalg.chain_levels((u,)), drawn),
            _drawing(gfq_linalg.chain_levels((v,)), drawn))
        assert path == (full,)
        rows = [_unpack(q, n, x) for x in drawn]
        if u.dim + full < n:
            assert len(drawn) == u.dim + v.dim
        else:
            assert subspace_from_rows(q, n, rows[:-1]).dim < n
            assert subspace_from_rows(q, n, rows).dim == n


def test_no_pair_is_ranked_past_the_largest_distance(monkeypatch):
    """No row of a pair is drawn once F_t + G_t = F_q^n, from where each t
    is at d_I = n - t, the largest distance above t = n/2, and the rows
    drawn have the rank the path ends at.  On full codes and on general
    types, which still match the reference; some pairs stop early and
    some never reach F_q^n."""
    original, stopped = flags_module.chain_path, []

    def recorded(q, n, dims, f_levels, g_levels):
        drawn = []
        path = original(q, n, dims, _drawing(f_levels, drawn),
                        _drawing(g_levels, drawn))
        rows = [_unpack(q, n, x) for x in drawn]
        assert subspace_from_rows(q, n, rows[:-1]).dim < n
        assert subspace_from_rows(q, n, rows).dim == dims[-1] + path[-1]
        stopped.append(len(drawn) < 2 * dims[-1])
        return path

    monkeypatch.setattr(flags_module, "chain_path", recorded)
    for code in (*_random_codes(20, 10), *_general_type_codes(120, 10)):
        _assert_matches_reference(code)
    assert any(stopped) and not all(stopped)


def _count_calls(monkeypatch, name):
    """Count the calls of a gfq_linalg function through every module that
    binds it."""
    calls, original = [], getattr(gfq_linalg, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (gfq_linalg, flags_module, durfee_analysis, cli):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_hyperplanes_rank_one_pair(monkeypatch):
    """Distinct hyperplanes are always at d_I = 1, the floor: each pair of
    them ranks one row past a hyperplane, and each flag pair's direct path,
    one per pair, reads 1 at t = n - 1 where their hyperplanes differ and 0
    where they share it."""
    code = random_full_flag_code(3, 6, 8, random.Random(7))
    hyperplanes = projected_code(code, 5)
    assert len(hyperplanes) >= 3
    for u, v in itertools.combinations(hyperplanes, 2):
        assert residual_rank(u, v) == 1
    original, seen = flags_module.chain_path, []

    def recorded(q, n, dims, f_levels, g_levels):
        path = original(q, n, dims, f_levels, g_levels)
        seen.append(path[-1])
        return path

    monkeypatch.setattr(flags_module, "chain_path", recorded)
    assert projected_distance(code, 5) == 1
    pairs = list(itertools.combinations(code.flags, 2))
    assert len(seen) == len(pairs)
    assert seen == [int(f.subspaces[-1] != g.subspaces[-1])
                    for f, g in pairs]


def test_middle_dimension_ranks_every_pair(monkeypatch):
    """analyze computes one direct path per flag pair, for every dimension
    at once: the middle dimension, above the floor 1, and the hyperplanes,
    at it, read the same paths, and no pair is skipped."""
    code = random_full_flag_code(3, 10, 8, random.Random(11))
    calls = _count_calls(monkeypatch, "chain_path")
    report = analyze(code)
    assert len(calls) == len({(id(a[3]), id(a[4])) for a in calls})
    assert len(calls) == comb(len(code), 2)
    middle, hyperplanes = (_reference_projected_distance(code, i)
                           for i in (5, 9))
    assert report.projected[5][1] == middle > 1
    assert report.projected[9][1] == hyperplanes == 1
    assert len(projected_code(code, 9)) >= 3


@pytest.mark.parametrize("q", [2, 5])
def test_rank_calls_counted_in_the_kernel_q_runs(monkeypatch, q):
    """analyze makes no residual_rank call, in the packed form of the direct
    path at q = 2 and in its list form at q = 5: one chain_path per pair."""
    code = random_full_flag_code(q, 8, 8, random.Random(11))
    ranks = _count_calls(monkeypatch, "residual_rank")
    paths = _count_calls(monkeypatch, "chain_path")
    report = analyze(code)
    assert ranks == []
    assert len(paths) == comb(len(code), 2)
    for i in (4, 7):
        assert report.projected[i][1] == _reference_projected_distance(code, i)


# ---------------------------------------------------------------------------
# Each code's table is built once, and every caller reads it
# ---------------------------------------------------------------------------

def test_analyze_builds_each_projected_code_once(monkeypatch):
    """analyze reads each flag's chain once, for the table of every C_i;
    rectangle_to_projected and projected_distance then read the table."""
    code = random_full_flag_code(3, 7, 5, random.Random(11))
    calls = _count_calls(monkeypatch, "chain_levels")
    report = analyze(code)
    assert len(calls) == len(code)
    assert rectangle_to_projected(code, 2) == report.derived[2]
    assert projected_distance(code, 3) == report.projected[3][1]
    assert len(calls) == len(code)


def test_general_type_branch_builds_each_projected_code_once(
        monkeypatch, tmp_path, type_135_text, capsys):
    path = tmp_path / "code.txt"
    path.write_text(type_135_text)
    calls = _count_calls(monkeypatch, "chain_levels")
    assert cli.main(["analyze", str(path)]) == 0
    assert len(calls) == 3
    assert "|C_i|=3, d_I(C_i)=1" in capsys.readouterr().out
