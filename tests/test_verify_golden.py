"""Byte-exact pins of ``flagcomb verify``.

Each case runs ``main(["verify", ...])`` and checks the exit code and the
sha256 of stdout, so a change to any byte of the report, from a check's
name to its case count, changes the digest.  The settings cover the
defaults, q = 5 and 7, a small and a large n_max, and three seeds.
"""

import hashlib

import pytest

from flagcomb.cli import main

# argv after "verify" -> sha256 of stdout; every run exits 0
DIGESTS = {
    (): "e48c92f5fcf3239cc1f45a1dc25522b1e8b1a1b04546c0ce7a3e5549ffb5254d",
    ("--q", "2,3,5", "--n-max", "5", "--trials", "50"):
        "7ed282cf66e46b3935bf92bf0ad94315e367affc74698d37b3c87a55f2927f7c",
    ("--q", "7", "--n-max", "4", "--trials", "20", "--seed", "3"):
        "812a4c69e0ed3d5a8fb5eb08beaddf75735670875ede1021773399ff428a9d02",
    ("--n-max", "9", "--trials", "300", "--seed", "5"):
        "1415319f9a0522627c43273fd8216fb425b0dbb4980acd536cfd7c8491fa12d5",
}


@pytest.mark.parametrize("argv", list(DIGESTS), ids=lambda a: " ".join(a) or "defaults")
def test_verify_report_is_pinned(argv, capsys):
    assert main(["verify", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[argv]
