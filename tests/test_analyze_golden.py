"""Byte-exact pins of ``flagcomb analyze`` and ``analyze --json``.

Each case writes a code file, runs ``main(["analyze", ...])`` and records
the exit code and stdout; each (group, format) pair hashes those records
in order.  The groups are random full codes at q = 2, 3, 5 and 7 with n
from 3 to 16, a singleton code, and the type-(1,3,5) code of conftest.
Half of the random codes add a flag that shares a prefix of subspaces
with another, so the projected codes C_i also hold repeated subspaces.
A change to any byte of any report changes its digest.
"""

import hashlib
import random

import pytest

from conftest import TYPE_135_TEXT
from flagcomb.cli import main

N_RANGE = range(3, 17)

# (group, format) -> (number of cases, sha256 of "exit code\nstdout" records)
DIGESTS = {
    (2, "text"): (14, "78141bf566dab6ae44c8fe3870b5b2cfb1b123a3267b7316842740ddbd326aa7"),
    (2, "json"): (14, "ed1c9e2261828cad7959901768332748078d220c0c4b161d2514cb4f67358a1c"),
    (3, "text"): (14, "42a8bfe1c1dd5476c730b318c2c60860324f907eedd89ab5bde4dfdda98c4fe3"),
    (3, "json"): (14, "2a04efcbbbe3dd36c341d88e87d6f7e3b6ce2113bb8591e1bcdd367129210bf7"),
    (5, "text"): (14, "cc40831e98ea0ed010443cdf1bf40b46e0a5e65fee8708dcae78916a91eccba5"),
    (5, "json"): (14, "a323c879f4414ce3504b49b3db2618bbd58992a0d586b11e859122121b9597e9"),
    (7, "text"): (14, "625f3b9bb82e91835f1a8e1b3911fa0c86eabad886217f446a3991497d15a453"),
    (7, "json"): (14, "b4fe1d0ddf6fbb1ee940acacaad482fe06478cb295f0521269caebe840019a8f"),
    ("singleton", "text"): (1, "c4f7581ae0fefe46afa99a51202759f9a0525b581b54a9ce4a626e24f3251c9f"),
    ("singleton", "json"): (1, "43d8f1328e01930deda639143801266771bb126abbb2f1d45a3f214d0dec270d"),
    ("type135", "text"): (1, "af39f728e5b461070ab71f3304f9fa05047202714a81b129e1679a4791057781"),
    ("type135", "json"): (1, "7a026b616bb451190af52251f3f8c0b023030ac6c1039d400dfadea9788d3e4a"),
}


def _invertible(q: int, n: int, rng: random.Random) -> list[list[int]]:
    """L·U with L unit lower-triangular and U upper-triangular with a
    nonzero diagonal, rows shuffled: invertible by construction."""
    lower = [[1 if j == i else (rng.randrange(q) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[rng.randrange(1, q) if j == i else
              (rng.randrange(q) if j > i else 0)
              for j in range(n)] for i in range(n)]
    rows = [[sum(lower[i][k] * upper[k][j] for k in range(n)) % q
             for j in range(n)] for i in range(n)]
    rng.shuffle(rows)
    return rows


def _code_text(q: int, n: int, flags: list[list[list[int]]]) -> str:
    blocks = ["\n".join(" ".join(map(str, r)) for r in rows) for rows in flags]
    return "\n\n".join([f"{q} {n} full", *blocks]) + "\n"


def _random_code(q: int, n: int) -> str:
    rng = random.Random(q * 100 + n)
    flags = [_invertible(q, n, rng) for _ in range(3)]
    if n % 2:
        # same first k rows, hence the same F_1..F_k, tail reordered
        k = rng.randrange(1, n - 1)
        tail = flags[0][k:]
        rng.shuffle(tail)
        flags.append(flags[0][:k] + tail)
    return _code_text(q, n, flags)


def _cases(group) -> list[str]:
    if group == "singleton":
        return [_code_text(5, 6, [_invertible(5, 6, random.Random(6))])]
    if group == "type135":
        return [TYPE_135_TEXT]
    return [_random_code(group, n) for n in N_RANGE]


@pytest.mark.parametrize("group, fmt", list(DIGESTS))
def test_analyze_output_is_pinned(group, fmt, tmp_path, capsys):
    flag = ["--json"] if fmt == "json" else []
    digest = hashlib.sha256()
    cases = _cases(group)
    for idx, text in enumerate(cases):
        path = tmp_path / f"code{idx}.txt"
        path.write_text(text)
        rc = main(["analyze", *flag, str(path)])
        digest.update(f"{rc}\n{capsys.readouterr().out}".encode())
    assert (len(cases), digest.hexdigest()) == DIGESTS[group, fmt]
