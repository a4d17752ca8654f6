"""Self-verification suite: every library invariant, runnable from the CLI.

Each check is a generator: a bare ``yield`` per case and ``yield msg`` per
failure; run_verification alone counts and reports them.  The whole run is
deterministic for a fixed seed: same seed, same report bytes.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Sequence

from .counting import max_distance
from .durfee_analysis import (analyze, black_dots_in_rectangle,
                              durfee_rectangle, durfee_rectangle_transposed,
                              ferrers_subdiagrams_of_code)
from .ferrers import (BLACK, bijection_table, black_cells, cell_color,
                      distance_equivalent, enumerate_embedded_partitions,
                      partition_of_staircase, skeleton_of_staircase,
                      splitting_value, staircase_class,
                      staircase_of_partition)
from .errors import InvalidPath, RealizationNotFound, check_int
from .flags import (pair_distance_profile, pair_pass, random_full_flag,
                    random_full_flag_code)
from .gfq_linalg import (grassmannian, injection_distance, require_prime,
                         subspace_from_rows, subspace_distance)
from .support_paths import (enumerate_paths, first_violation,
                            path_codistance, path_distance, pick_area,
                            plateau_count, realize_path, validate_path)

Check = Callable[[random.Random, int, Sequence[int], int],
                 Iterator[str | None]]


def _check_rref(rng, n_max, qs, trials):
    for _ in range(min(trials, 200)):
        q = rng.choice(list(qs))
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 6)
        m = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        u = subspace_from_rows(q, cols, m)
        yield
        if subspace_from_rows(q, cols, u.basis) != u:
            yield f"rref not idempotent on {m}"
        # canonical equality: random row combinations span a subspace
        mixed = []
        for _ in range(rows + 1):
            coeffs = [rng.randrange(q) for _ in range(rows)]
            mixed.append([sum(c * e for c, e in zip(coeffs, col)) % q
                          for col in zip(*m)])
        v = subspace_from_rows(q, cols, mixed)
        if v.dim == u.dim and u != v:
            yield f"same span, different canonical form: {m}"
        if v.dim > u.dim:
            yield f"row mix grew the span: {m}"


def _check_metric_axioms(rng, n_max, qs, trials):
    for n in (3, 4):
        for k in range(1, n):
            subs = list(grassmannian(2, n, k))
            dist = [[injection_distance(u, v) for v in subs] for u in subs]
            m = len(subs)
            for a in range(m):
                if dist[a][a] != 0:
                    yield f"d(U,U) != 0 in G_2({k},{n})"
                for b in range(a + 1, m):
                    yield
                    if dist[a][b] != dist[b][a]:
                        yield f"asymmetry in G_2({k},{n})"
                    if dist[a][b] == 0:
                        yield f"d=0 for distinct subspaces G_2({k},{n})"
            for a in range(m):
                for b in range(a + 1, m):
                    for c in range(b + 1, m):
                        yield
                        if (dist[a][c] > dist[a][b] + dist[b][c]
                                or dist[a][b] > dist[a][c] + dist[c][b]
                                or dist[b][c] > dist[b][a] + dist[a][c]):
                            yield f"triangle violated in G_2({k},{n})"


def _check_double_distance(rng, n_max, qs, trials):
    for _ in range(min(trials, 200)):
        q = rng.choice(list(qs))
        n = rng.randrange(2, 7)
        k = rng.randrange(1, n + 1)
        u = subspace_from_rows(q, n, [[rng.randrange(q) for _ in range(n)]
                                      for _ in range(k)])
        v = subspace_from_rows(q, n, [[rng.randrange(q) for _ in range(n)]
                                      for _ in range(u.dim)])
        if v.dim != u.dim:
            continue
        yield
        if subspace_distance(u, v) != 2 * injection_distance(u, v):
            yield f"d_S != 2 d_I for dims {u.dim} in F_{q}^{n}"


def _check_random_pair_paths(rng, n_max, qs, trials):
    for _ in range(trials):
        q = rng.choice(list(qs))
        n = rng.randrange(2, n_max + 1)
        f = random_full_flag(q, n, rng)
        g = random_full_flag(q, n, rng)
        deltas = (0, *pair_distance_profile(f, g), 0)
        yield
        bad = first_violation(deltas, n)
        if bad is not None:
            yield f"invalid path {deltas} at q={q}: {bad[1]}"


def _check_enumerated_paths(rng, n_max, qs, trials):
    for n in range(2, min(n_max + 2, 10) + 1):
        for p in enumerate_paths(n, max_n=n):
            yield
            if pick_area(p) != path_distance(p):
                yield f"pick != distance for {p.deltas}"
            if path_distance(p) + path_codistance(p) != max_distance(n):
                yield f"codistance identity broken for {p.deltas}"
            if plateau_count(p)[0] % 2 != n % 2:
                yield f"plateau parity broken for {p.deltas}"
            if not validate_path(tuple(reversed(p.deltas)), n):
                yield f"reversal invalid for {p.deltas}"


def _check_realize(rng, n_max, qs, trials):
    for n in range(2, min(n_max, 6) + 1):
        paths = enumerate_paths(n, max_n=n)
        for q in qs:
            for p in paths:
                yield
                try:
                    realize_path(p, q)  # raises unless it round-trips
                except (RealizationNotFound, InvalidPath) as exc:
                    yield f"realization failed for {p.deltas}: {exc}"


def _check_frame_colors(rng, n_max, qs, trials):
    for n in range(2, 13):
        black = red = 0
        for i in range(1, n):
            for j in range(1, n - i + 1):
                if cell_color(n, i, j) == BLACK:
                    black += 1
                else:
                    red += 1
        yield
        if black != max_distance(n) or (n > 2 and red != max_distance(n - 1)):
            yield f"color totals wrong for FF({n}): {black}/{red}"


def _check_partition_roundtrip(rng, n_max, qs, trials):
    for n in range(2, 9):
        for part in enumerate_embedded_partitions(n, max_n=n):
            yield
            if partition_of_staircase(staircase_of_partition(part)) != part:
                yield f"round-trip failed for {part.parts} n={n}"


def _check_class_law(rng, n_max, qs, trials):
    for n in range(2, 9):
        total = 0
        for p in enumerate_paths(n, max_n=n):
            yield
            cls = staircase_class(p)
            if len(cls) != 2 ** plateau_count(p)[1]:
                yield f"class size != 2^p for {p.deltas}"
            for s in cls:
                if skeleton_of_staircase(s) != p:
                    yield f"skeleton mismatch in class of {p.deltas}"
            total += len(cls)
        if total != len(enumerate_embedded_partitions(n, max_n=n)):
            yield f"classes do not partition the universe for n={n}"


def _check_equivalence_criterion(rng, n_max, qs, trials):
    # distance_equivalent itself cross-checks criterion vs cell sets and
    # raises on disagreement; exercising it is the test.
    for n in range(2, 7):
        parts = enumerate_embedded_partitions(n, max_n=n)
        for a in range(len(parts)):
            for b in range(a, len(parts)):
                yield
                distance_equivalent(parts[a], parts[b])
    for n in (7, 8):
        parts = enumerate_embedded_partitions(n, max_n=n)
        for _ in range(min(trials, 1000)):
            yield
            distance_equivalent(rng.choice(parts), rng.choice(parts))


def _check_bijection(rng, n_max, qs, trials):
    for n in range(2, 9):
        for d, n_paths, n_split in bijection_table(n, max_n=n):
            yield
            if n_paths != n_split:
                yield f"bijection fails at n={n}, d={d}"


def _check_skeleton_invariance(rng, n_max, qs, trials):
    for n in range(2, 8):
        for part in enumerate_embedded_partitions(n, max_n=n):
            yield
            d = path_distance(skeleton_of_staircase(staircase_of_partition(part)))
            if max_distance(n) - splitting_value(part) != d:
                yield f"black-dot count != distance for {part.parts}"
            if len(black_cells(part)) != splitting_value(part):
                yield f"cell count != splitting for {part.parts}"


def _check_rectangle_lemma(rng, n_max, qs, trials):
    for n in range(2, 13):
        for a in range(1, n):
            for b in range(1, n - a + 1):
                brute = sum(1 for i in range(1, a + 1)
                            for j in range(1, b + 1)
                            if cell_color(n, i, j) == BLACK)
                yield
                if brute != black_dots_in_rectangle(a, b, n):
                    yield f"rectangle count wrong: {a}x{b} in FF({n})"


def _check_code_theorems(rng, n_max, qs, trials):
    combos = [(n, q) for n in range(4, max(n_max, 4) + 1) for q in qs]
    for t in range(trials):
        n, q = combos[t % len(combos)]
        size = rng.randrange(2, 5)
        c = random_full_flag_code(q, n, size, rng)
        yield
        try:
            analyze(c)  # raises ConsistencyError on any theorem violation
        except Exception as exc:  # pragma: no cover - a failure IS the report
            yield f"analyze failed (n={n}, q={q}): {exc}"
            continue
        # rectangle law, both directions, stated set-wise
        # (the only comparison of the law with a code's whole F(C))
        subdiagrams = ferrers_subdiagrams_of_code(c)
        for i in range(1, n):
            if 2 * i <= n:
                rect = {durfee_rectangle(p, n - 2 * i).rows for p in subdiagrams}
            else:
                rect = {durfee_rectangle_transposed(p, 2 * i - n)
                        for p in subdiagrams}
            direct = {min(i, n - i) - prof[i - 1] for prof in pair_pass(c)[0]}
            if rect != direct:
                yield f"rectangle law fails n={n} q={q} i={i}"


CHECKS: list[tuple[str, Check]] = [
    ("rref_canonical", _check_rref),
    ("injection_metric_axioms", _check_metric_axioms),
    ("subspace_distance_doubles", _check_double_distance),
    ("random_pair_paths_valid", _check_random_pair_paths),
    ("enumerated_path_identities", _check_enumerated_paths),
    ("realization_roundtrip", _check_realize),
    ("frame_color_totals", _check_frame_colors),
    ("partition_staircase_roundtrip", _check_partition_roundtrip),
    ("staircase_class_law", _check_class_law),
    ("equivalence_criterion_vs_cells", _check_equivalence_criterion),
    ("path_splitting_bijection", _check_bijection),
    ("skeleton_black_dot_invariance", _check_skeleton_invariance),
    ("rectangle_black_dot_lemma", _check_rectangle_lemma),
    ("code_level_theorems", _check_code_theorems),
]


def run_verification(n_max: int = 7, qs: Sequence[int] = (2, 3),
                     trials: int = 1000, seed: int = 0) -> tuple[str, bool]:
    """Run every check; returns (report text, all passed).  n_max, trials
    and every q are checked before any check runs (ValueError if bad)."""
    check_int("n_max", n_max, 2)
    check_int("trials", trials, 0)
    for q in qs:
        require_prime(q)
    lines = [f"verification: n_max={n_max} q={list(qs)} trials={trials} "
             f"seed={seed}"]
    ok = True
    for name, check in CHECKS:
        rng = random.Random((seed, name).__str__())
        out = list(check(rng, n_max, qs, trials))
        fails, cases = [m for m in out if m is not None], out.count(None)
        if fails:
            ok = False
            lines.append(f"FAIL {name}: {len(fails)} failure(s) in {cases} cases")
            lines.extend(f"     {f}" for f in fails[:10])
        else:
            lines.append(f"ok   {name}: {cases} cases")
    lines.append("all checks passed" if ok else "VERIFICATION FAILED")
    return "\n".join(lines), ok
