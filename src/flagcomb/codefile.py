"""Reading and writing flag-code files.

Text format (hand-writable, diff-friendly):

    q n type        <- header; type is "full" or comma-separated dims "1,3,5"
    <flag 1 rows>   <- one row of space-separated integers per line
                    <- blank line between flags
    <flag 2 rows>

Lines starting with '#' are comments.  A JSON alternative is accepted when
the file starts with '{':

    {"q": 2, "n": 6, "type": "full" | [1, 3, 5],
     "flags": [[[row], [row], ...], ...]}

Text numbers are ASCII decimal, JSON ones integers; entries are reduced mod q.
"""

from __future__ import annotations

import json

from .errors import FlagcombError, InvalidFlag, ParseError
from .flags import Flag, FlagCode, TypeVector, flag_from_matrix
from .gfq_linalg import require_prime


def _integer(v) -> int:
    """*v* if it is a JSON integer: a float, string or bool is not."""
    if type(v) is not int:
        raise ValueError(f"{v!r} is not an integer")
    return v


def _parse_type(token: str | list, n: int) -> TypeVector:
    try:
        if token == "full":
            return TypeVector.full(n)
        dims = (map(int, token.split(",")) if isinstance(token, str)
                else map(_integer, token))
        return TypeVector(n, tuple(dims))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad type vector {token!r}: {exc}") from exc


def _build_flags(q: int, n: int, type_token: str | list,
                 blocks: list[list[bytes | list[int]]]) -> FlagCode:
    """Validate the header against the rows, then build the flags.

    q and n come from the file, so both are bounded before anything is
    allocated for them: q by the range in which is_prime is exact, n by
    the rows themselves, since every row must have n entries.
    """
    try:
        require_prime(q)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if not blocks:
        raise ParseError("no flags in file")
    for idx, rows in enumerate(blocks, start=1):
        for row in rows:
            if len(row) != n:
                raise InvalidFlag(idx, f"expected {n} columns, got {len(row)}")
    tv = _parse_type(type_token, n)
    flags: list[Flag] = []
    for idx, rows in enumerate(blocks, start=1):
        try:
            flags.append(flag_from_matrix(q, n, tv, rows))
        except FlagcombError as exc:
            raise InvalidFlag(idx, str(exc)) from exc
    return FlagCode(flags)


def parse_code(text: str) -> FlagCode:
    """Parse either format; raises ParseError / InvalidFlag."""
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_text(text)


def _parse_json(text: str) -> FlagCode:
    try:
        doc = json.loads(text)
        q, n = _integer(doc["q"]), _integer(doc["n"])
        blocks = [[[_integer(e) for e in row] for row in rows]
                  for rows in doc["flags"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise ParseError(f"bad JSON code file: {exc}") from exc
    return _build_flags(q, n, doc.get("type", "full"), blocks)


# a row of single digits and spaces: "0"-"9" to 0-9; another one: int()
_DIGIT_BYTES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _parse_text(text: str) -> FlagCode:
    lines = [("" if ln.startswith("#") else ln)
             for ln in map(str.strip, text.splitlines())]
    # int() also reads "1_0" and "١": lines are scanned if the text holds one
    if not text.isascii() or "_" in text:
        for lineno, ln in enumerate(lines, start=1):
            if not ln.isascii() or "_" in ln:
                raise ParseError(f"line {lineno}: bad row {ln!r}")

    body_start = next((idx + 1 for idx, ln in enumerate(lines) if ln), 0)
    if not body_start:
        raise ParseError("empty code file")
    header = lines[body_start - 1]
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(f"header must be 'q n type', got {header!r}")
    try:
        q, n = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad header numbers in {header!r}") from exc

    blocks: list[list[bytes | list[int]]] = [[]]    # a blank line opens one
    for lineno, ln in enumerate(lines[body_start:], start=body_start + 1):
        if not ln:
            blocks.append([])
            continue
        if (digits := ln[::2]).isdigit() and not ln[1::2].strip(" "):
            blocks[-1].append(digits.encode().translate(_DIGIT_BYTES))
            continue
        try:
            blocks[-1].append(list(map(int, ln.split())))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad row {ln!r}") from exc
    return _build_flags(q, n, parts[2], [rows for rows in blocks if rows])


def serialize_code(c: FlagCode) -> str:
    """Write the text format back out."""
    type_token = ("full" if c.type.is_full
                  else ",".join(str(t) for t in c.type.dims))
    chunks = [f"{c.q} {c.n} {type_token}"]
    for fl in c:
        rows = "\n".join(" ".join(str(e) for e in row)
                         for row in fl.generator)
        chunks.append(rows)
    return "\n\n".join(chunks) + "\n"


def serialize_code_json(c: FlagCode) -> str:
    doc = {
        "q": c.q,
        "n": c.n,
        "type": "full" if c.type.is_full else list(c.type.dims),
        "flags": [[list(row) for row in fl.generator] for fl in c],
    }
    return json.dumps(doc, indent=2) + "\n"
