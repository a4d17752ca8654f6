"""The direct side: projected_distance against an exhaustive reference, the
early exits that bound it (the running-minimum cap and the floor 1), and
one build of each projected code per caller."""

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
from flagcomb.gfq_linalg import (RowSpace, _residual_rank, residual_rank,
                                 subspace_from_rows)


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


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
def test_residual_rank_stops_at_the_cap(q, n):
    """Both kernels, the list one and the packed one, at every cap from 0,
    on every pair of subspaces of F_q^n."""
    subs = [s for k in range(n + 1) for s in grassmannian(q, n, k)]
    for u, v in itertools.product(subs, repeat=2):
        pivots = RowSpace.from_rref(q, n, u.basis).pivots
        full = subspace_from_rows(q, n, u.basis + v.basis).dim - u.dim
        assert _residual_rank(pivots, v.basis, q) == full
        assert residual_rank(u, v) == full
        for cap in range(n + 1):
            assert _residual_rank(pivots, v.basis, q, cap=cap) == min(full, cap)
            assert residual_rank(u, v, cap=cap) == min(full, cap)


def test_no_pair_is_ranked_past_the_largest_distance(monkeypatch):
    """projected_parameters passes residual_rank no cap above min(t, n - t),
    the largest d_I of two t-dimensional subspaces of F_q^n, and still
    matches the reference, on full codes and on general types."""
    caps = []

    def recorded(u, v, cap=None):
        caps.append((u.dim, u.ambient_n, cap))
        return residual_rank(u, v, cap)

    monkeypatch.setattr(flags_module, "residual_rank", recorded)
    for code in (*_random_codes(20, 10), *_general_type_codes(120, 10)):
        _assert_matches_reference(code)
    assert any(2 * t > n for t, n, _ in caps)
    assert all(cap <= min(t, n - t) for t, n, cap in caps)


def _count_ranked_pairs(monkeypatch, q):
    """Count the rank calls of the kernel the direct side runs at q: the
    packed residual_rank for q = 2, 3, the list _residual_rank beyond."""
    calls = []
    if q in gfq_linalg.PACKED_Q:
        module, name = flags_module, "residual_rank"
    else:
        module, name = gfq_linalg, "_residual_rank"
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_hyperplanes_rank_one_pair(monkeypatch):
    """Distinct hyperplanes are always at d_I = 1, the floor: the first
    pair ends the search."""
    code = random_full_flag_code(3, 6, 8, random.Random(7))
    assert len(projected_code(code, 5)) >= 3
    calls = _count_ranked_pairs(monkeypatch, 3)
    assert projected_distance(code, 5) == 1
    assert len(calls) == 1


def test_middle_dimension_ranks_every_pair(monkeypatch):
    """Above the floor, no pair is skipped: the cap only shortens them."""
    code = random_full_flag_code(3, 10, 8, random.Random(11))
    i = 5
    size = len(projected_code(code, i))
    expected = _reference_projected_distance(code, i)
    assert expected > 1
    calls = _count_ranked_pairs(monkeypatch, 3)
    assert projected_distance(code, i) == expected
    assert len(calls) == comb(size, 2)


@pytest.mark.parametrize("q", [2, 5])
def test_rank_calls_counted_in_the_kernel_q_runs(monkeypatch, q):
    """The two counts above, in the packed kernel at q = 2 and in the list
    kernel at q = 5."""
    code = random_full_flag_code(q, 8, 8, random.Random(11))
    size = len(projected_code(code, 4))
    expected = _reference_projected_distance(code, 4)
    assert len(projected_code(code, 7)) >= 3 and expected > 1
    calls = _count_ranked_pairs(monkeypatch, q)
    assert projected_distance(code, 7) == 1
    assert len(calls) == 1
    calls.clear()
    assert projected_distance(code, 4) == expected
    assert len(calls) == comb(size, 2)


# ---------------------------------------------------------------------------
# Each projected code is built once per (code, i)
# ---------------------------------------------------------------------------

def _count_projected_codes(monkeypatch):
    """Count projected_code calls through every module that binds it."""
    calls = []
    original = flags_module.projected_code

    def counted(c, i):
        calls.append(i)
        return original(c, i)

    for module in (flags_module, durfee_analysis, cli):
        if hasattr(module, "projected_code"):
            monkeypatch.setattr(module, "projected_code", counted)
    return calls


def test_analyze_builds_each_projected_code_once(monkeypatch):
    code = random_full_flag_code(3, 7, 5, random.Random(11))
    calls = _count_projected_codes(monkeypatch)
    analyze(code)
    assert sorted(calls) == list(range(1, code.n))
    calls.clear()
    rectangle_to_projected(code, 2)
    assert calls == [2]


def test_general_type_branch_builds_each_projected_code_once(
        monkeypatch, tmp_path, type_135_text, capsys):
    path = tmp_path / "code.txt"
    path.write_text(type_135_text)
    calls = _count_projected_codes(monkeypatch)
    assert cli.main(["analyze", str(path)]) == 0
    assert calls == [1, 2, 3]
    assert "|C_i|=3, d_I(C_i)=1" in capsys.readouterr().out
