"""Fuzzing the input contract: code files drawn at random, text and JSON.

Whatever the file holds, parse_code either returns a code or raises
ParseError, and `flagcomb analyze` exits 0, 1, 2 or 3 without letting an
exception escape.  Sizes stay small so each example runs in milliseconds.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flagcomb.cli import main
from flagcomb.codefile import parse_code
from flagcomb.errors import ParseError

QS = st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 6, 7, 9, 2 ** 61 - 1,
                      2 ** 89 - 1]) | st.integers(-5, 20)
NS = st.integers(-1, 6)
ENTRIES = st.integers(-3, 10)
TYPE_TOKENS = st.sampled_from(["full", "1", "1,2", "2,1", "1,3,5", "0,1",
                               "1,x", "", "full,1"]) | st.text(max_size=4)
ROWS = st.lists(st.lists(ENTRIES, max_size=7), max_size=6)
BLOCKS = st.lists(ROWS, max_size=3)
JUNK = st.text(alphabet=" 0123456789-#,{}[]\":x\n", max_size=20)


@st.composite
def generators(draw, n):
    """An invertible n x n generator: a permutation matrix with random
    multiples of later rows added to each row."""
    rows = [[int(c == p) for c in range(n)]
            for p in draw(st.permutations(range(n)))]
    for k in range(n):
        for j in range(k + 1, n):
            c = draw(st.integers(0, 2))
            rows[k] = [a + c * b for a, b in zip(rows[k], rows[j])]
    return rows


@st.composite
def codes(draw):
    """(q, n, type token, blocks): either wild, or a well-formed full or
    general-type code over a small field that analyze can run on."""
    if draw(st.booleans()):
        return draw(QS), draw(NS), draw(TYPE_TOKENS), draw(BLOCKS)
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 5))
    dims = draw(st.lists(st.integers(1, n - 1), min_size=1, unique=True))
    token = ("full" if draw(st.booleans())
             else ",".join(map(str, sorted(dims))))
    blocks = draw(st.lists(generators(n), min_size=1, max_size=3))
    return q, n, token, blocks


@st.composite
def text_files(draw):
    q, n, token, blocks = draw(codes())
    prefix = draw(st.sampled_from(["", "# comment\n", "2 3\n", "x y z\n"]))
    chunks = [f"{prefix}{q} {n} {token}"]
    for rows in blocks:
        chunks.append("\n".join(" ".join(map(str, r)) for r in rows))
    text = "\n\n".join(chunks) + "\n"
    if draw(st.booleans()):
        text += draw(JUNK)
    return text


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | ENTRIES | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


@st.composite
def json_files(draw):
    doc = {}
    for key, value in zip(("q", "n", "type", "flags"), draw(codes())):
        choice = draw(st.integers(0, 5))
        if choice == 0:
            continue                      # key missing
        doc[key] = draw(JSON_VALUES) if choice == 1 else value
    return json.dumps(doc)


def _check(text, tmp_path_factory):
    try:
        parse_code(text)
    except ParseError:
        pass
    path = tmp_path_factory.mktemp("fuzz") / "code.txt"
    path.write_text(text)
    assert main(["analyze", str(path)]) in {0, 1, 2, 3}
    assert main(["analyze", "--json", str(path)]) in {0, 1, 2, 3}


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(text=text_files())
def test_fuzz_text_code_files(tmp_path_factory, text):
    _check(text, tmp_path_factory)


@FUZZ
@given(text=json_files())
def test_fuzz_json_code_files(tmp_path_factory, text):
    _check(text, tmp_path_factory)
