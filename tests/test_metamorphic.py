"""Metamorphic checks of analyze: transforms of a code whose effect on
every output is known, so they reach n = 24 with no reference
implementation.

- A change of basis x -> xA by one invertible A is a linear automorphism
  of F_q^n: it keeps every subspace distance, so analyze returns the same
  CodeAnalysis.
- Adding multiples of earlier rows to later rows and scaling rows by
  nonzero constants keeps every prefix span, so every flag; shuffling the
  flags and repeating some keeps the code.  The CLI text and --json
  outputs stay byte-identical.

A is built in the tests, as a product of triangular factors with its rows
shuffled, and every transform is the tests' own arithmetic mod q.  Seeds
are fixed.
"""

import dataclasses
import random

import pytest

from flagcomb import FlagCode, TypeVector, analyze, flag_from_matrix
from flagcomb.cli import main
from flagcomb.flags import random_full_flag_code

from test_analyze_golden import _code_text, _invertible

CASES = ([(q, n) for q in (2, 3) for n in [*range(2, 13), 15, 18, 21, 24]]
         + [(q, n) for q in (5, 7) for n in range(2, 13)])


def _generators(q, n, rng):
    """The generators of a random full code, plus one that shares the first
    k rows of the first, so that the projected codes C_i repeat subspaces."""
    code = random_full_flag_code(q, n, rng.randint(2, 3 if n == 2 else 5),
                                 rng)
    gens = [[list(r) for r in f.generator] for f in code]
    k = rng.randrange(1, n)
    tail = gens[0][k:]
    rng.shuffle(tail)
    return gens + [gens[0][:k] + tail]


def _code(q, n, gens):
    return FlagCode(flag_from_matrix(q, n, TypeVector.full(n), g)
                    for g in gens)


def _same_flag_rows(q, rows, rng):
    """The rows with random multiples of earlier rows added to each later
    row, then each scaled by a nonzero constant: the same prefix spans."""
    out = []
    for row in rows:
        for prev in out:
            c = rng.randrange(q)
            row = [(a + c * b) % q for a, b in zip(row, prev)]
        out.append(row)
    scales = [rng.randrange(1, q) for _ in out]
    return [[c * e % q for e in row] for c, row in zip(scales, out)]


def _analyze_outputs(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    outputs = []
    for extra in ([], ["--json"]):
        assert main(["analyze", str(path), *extra]) == 0
        outputs.append(capsys.readouterr().out)
    return outputs


@pytest.mark.parametrize("q, n", CASES)
def test_analyze_is_invariant_under_a_change_of_basis(q, n):
    rng = random.Random(1000 * q + n)
    gens = _generators(q, n, rng)
    a = _invertible(q, n, rng)
    moved = [[[sum(x * a[k][j] for k, x in enumerate(row)) % q
               for j in range(n)] for row in g] for g in gens]
    want, got = analyze(_code(q, n, gens)), analyze(_code(q, n, moved))
    for name in (field.name for field in dataclasses.fields(want)):
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("q, n", CASES)
def test_analyze_output_is_invariant_under_other_generators(
        q, n, tmp_path, capsys):
    rng = random.Random(2000 * q + n)
    gens = _generators(q, n, rng)
    other = [_same_flag_rows(q, g, rng) for g in gens]
    other += rng.choices(other, k=rng.randint(1, 3))
    rng.shuffle(other)
    want = _analyze_outputs(tmp_path, capsys, "code.txt",
                            _code_text(q, n, gens))
    got = _analyze_outputs(tmp_path, capsys, "other.txt",
                           _code_text(q, n, other))
    assert got == want
