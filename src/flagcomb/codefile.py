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

Entries are reduced mod q on load.
"""

from __future__ import annotations

import json

from .errors import FlagcombError, InvalidFlag, ParseError
from .flags import Flag, FlagCode, TypeVector, flag_from_matrix
from .gfq_linalg import is_prime


def _parse_type(token: str | list, n: int) -> TypeVector:
    try:
        if token == "full":
            return TypeVector.full(n)
        dims = token.split(",") if isinstance(token, str) else token
        return TypeVector(n, tuple(int(t) for t in dims))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad type vector {token!r}: {exc}") from exc


def _build_flags(q: int, n: int, tv: TypeVector,
                 blocks: list[list[list[int]]]) -> FlagCode:
    if not is_prime(q):
        raise ParseError(f"q = {q} is not prime")
    flags: list[Flag] = []
    for idx, rows in enumerate(blocks, start=1):
        try:
            flags.append(flag_from_matrix(q, n, tv, rows))
        except (FlagcombError, ValueError) as exc:   # ValueError: ragged rows
            raise InvalidFlag(idx, str(exc)) from exc
    if not flags:
        raise ParseError("no flags in file")
    return FlagCode(flags)


def parse_code(text: str) -> FlagCode:
    """Parse either format; raises ParseError / InvalidFlag."""
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_text(text)


def _parse_json(text: str) -> FlagCode:
    try:
        doc = json.loads(text)
        q, n = int(doc["q"]), int(doc["n"])
        blocks = [[[int(e) for e in row] for row in rows]
                  for rows in doc["flags"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise ParseError(f"bad JSON code file: {exc}") from exc
    return _build_flags(q, n, _parse_type(doc.get("type", "full"), n), blocks)


def _parse_text(text: str) -> FlagCode:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [("" if ln.startswith("#") else ln) for ln in lines]

    header = None
    body_start = 0
    for idx, ln in enumerate(lines):
        if ln:
            header = ln
            body_start = idx + 1
            break
    if header is None:
        raise ParseError("empty code file")
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(f"header must be 'q n type', got {header!r}")
    try:
        q, n = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad header numbers in {header!r}") from exc
    tv = _parse_type(parts[2], n)

    blocks: list[list[list[int]]] = []
    current: list[list[int]] = []
    for lineno, ln in enumerate(lines[body_start:], start=body_start + 1):
        if not ln:
            if current:
                blocks.append(current)
                current = []
            continue
        try:
            current.append([int(tok) for tok in ln.split()])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad row {ln!r}") from exc
    if current:
        blocks.append(current)
    return _build_flags(q, n, tv, blocks)


def serialize_code(c: FlagCode) -> str:
    """Write the text format back out."""
    type_token = ("full" if c.type.is_full
                  else ",".join(str(t) for t in c.type.dims))
    chunks = [f"{c.q} {c.n} {type_token}"]
    for fl in c:
        rows = "\n".join(" ".join(str(e) for e in row)
                         for row in fl.generator.entries)
        chunks.append(rows)
    return "\n\n".join(chunks) + "\n"


def serialize_code_json(c: FlagCode) -> str:
    doc = {
        "q": c.q,
        "n": c.n,
        "type": "full" if c.type.is_full else list(c.type.dims),
        "flags": [[list(row) for row in fl.generator.entries] for fl in c],
    }
    return json.dumps(doc, indent=2) + "\n"
