"""Deterministic ASCII and SVG renderings of the paper-style diagrams.

ASCII legend: 'x' crossed (zero-distance) point, 'o' black circle point,
'*' red circle point, '+' red crossed point.  Path overlays use '/', '-',
'\\' for the polyline and '.' for support points off the path.
"""

from __future__ import annotations

from typing import Optional

from .config import FORMATS, TARGETS, check_n
from .errors import InvalidSpec, check_int
from .ferrers import BLACK, EmbeddedPartition, cell_color, staircase_of_partition
from .support_paths import DistancePath


def _support_points(n: int, enriched: bool) -> list[tuple[int, int, bool, bool]]:
    """(x, y, black, crossed) in doubled units: the black points (2i, 2δ)
    of S(n), then, if enriched, the red points (2i+1, 2δ+1) of S(n-1).
    A point is crossed when its δ is 0."""
    points = [(2 * i, 2 * delta, True, delta == 0)
              for i in range(n + 1) for delta in range(min(i, n - i) + 1)]
    if enriched:
        points += [(2 * i + 1, 2 * delta + 1, False, delta == 0)
                   for i in range(n) for delta in range(min(i, n - 1 - i) + 1)]
    return points


def _frame_row(n: int, i: int) -> str:
    """Row i of FF(n), left to right: 'o' black, '*' red (j counts from
    the right)."""
    return "".join("o" if cell_color(n, i, j) == BLACK else "*"
                   for j in range(n - i, 0, -1))


# ---------------------------------------------------------------------------
# ASCII drawers
# ---------------------------------------------------------------------------

_MARK = {(True, True): "x", (True, False): "o",
         (False, True): "+", (False, False): "*"}


def _grid(n: int, top: int, marks) -> list[str]:
    """Rows top..0 of a doubled-unit grid 2n+1 wide, with ch at (x, y) for
    each (x, y, ch) of marks (later marks win)."""
    grid = [[" "] * (2 * n + 1) for _ in range(top + 1)]
    for x, y, ch in marks:
        grid[y][x] = ch
    return ["".join(row).rstrip() for row in reversed(grid)]


def _ascii_support(n: int, enriched: bool) -> str:
    points = _support_points(n, enriched)
    lines = _grid(n, max(y for _, y, _, _ in points),
                  [(x, y, _MARK[black, crossed])
                   for x, y, black, crossed in points])
    # S(n) alone has points on the even rows only
    return "\n".join(lines if enriched else lines[::2])


def _ascii_path(p: DistancePath) -> str:
    top = 2 * max(p.deltas)
    marks = [(x, y, ".") for x, y, _, _ in _support_points(p.n, False)
             if y <= top]
    marks += [(2 * i, 2 * delta, _MARK[True, delta == 0])
              for i, delta in enumerate(p.deltas)]
    marks += [(2 * i + 1, a + b, "-" if a == b else "/" if b > a else "\\")
              for i, (a, b) in enumerate(zip(p.deltas, p.deltas[1:]))]
    return "\n".join(_grid(p.n, top, marks))


def _ascii_frame(n: int, part: Optional[EmbeddedPartition] = None) -> str:
    """FF(n), each row cut by '|' where the staircase of part leaves it."""
    profile = None if part is None else staircase_of_partition(part).profile
    lines = []
    for i in range(1, n):
        row = _frame_row(n, i)
        if profile is not None:
            cut = len(row) - profile[i - 1]
            row = row[:cut] + "|" + row[cut:]
        lines.append(" " * (i - 1) + row)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SVG drawers.  Minimal, deterministic markup: integer coordinates only.
# ---------------------------------------------------------------------------

_SCALE = 24
_PAD = 20


def _svg(width: int, height: int, polyline, dots) -> str:
    """The document: an optional polyline of pixel (x, y) vertices, then
    one mark per pixel (x, y, black, crossed) dot."""
    elements = []
    if polyline is not None:
        points = " ".join(f"{x},{y}" for x, y in polyline)
        elements.append(f'<polyline points="{points}" fill="none" '
                        f'stroke="#3366cc" stroke-width="2"/>')
    for x, y, black, crossed in dots:
        color = "#000000" if black else "#cc0000"
        if crossed:
            elements.append(f'<path d="M {x - 4} {y - 4} L {x + 4} {y + 4} '
                            f'M {x - 4} {y + 4} L {x + 4} {y - 4}" '
                            f'stroke="{color}" stroke-width="2" fill="none"/>')
        else:
            elements.append(f'<circle cx="{x}" cy="{y}" r="4" fill="{color}"/>')
    body = "\n".join("  " + e for e in elements)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n{body}\n</svg>\n')


def _svg_support(n: int, enriched: bool,
                 path: Optional[DistancePath] = None) -> str:
    points = _support_points(n, enriched)
    top = max(y for _, y, _, _ in points)

    def px(x: int, y: int) -> tuple[int, int]:
        return _PAD + x * _SCALE // 2, _PAD + (top - y) * _SCALE // 2

    polyline = None
    if path is not None:
        polyline = [px(2 * i, 2 * delta) for i, delta in enumerate(path.deltas)]
    return _svg(n * _SCALE + 2 * _PAD, top * _SCALE // 2 + 2 * _PAD,
                polyline, [(*px(x, y), black, crossed)
                           for x, y, black, crossed in points])


def _svg_frame(n: int, part: Optional[EmbeddedPartition] = None) -> str:
    size = n * _SCALE + 2 * _PAD
    polyline = None
    if part is not None:
        # down the right edge of each staircase row, then out along the bottom
        profile = staircase_of_partition(part).profile
        corners = [(lam, y) for i, lam in enumerate(profile)
                   for y in (i, i + 1)] + [(0, n - 1)]
        polyline = [(_PAD + (n - 1 - lam) * _SCALE, _PAD + y * _SCALE)
                    for lam, y in corners]
    # cell centres; row i is right-justified, its first cell in column i-1
    half = _SCALE // 2
    dots = [(_PAD + col * _SCALE + half, _PAD + (i - 1) * _SCALE + half,
             mark == "o", False)
            for i in range(1, n)
            for col, mark in enumerate(_frame_row(n, i), start=i - 1)]
    return _svg(size, size, polyline, dots)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# (target, format) -> drawer of (n, the path or partition drawn, or None)
_DRAWERS = {
    ("support", "ascii"): lambda n, _: _ascii_support(n, enriched=False),
    ("enriched", "ascii"): lambda n, _: _ascii_support(n, enriched=True),
    ("path", "ascii"): lambda n, path: _ascii_path(path),
    ("frame", "ascii"): _ascii_frame,
    ("staircase", "ascii"): _ascii_frame,
    ("support", "svg"): lambda n, _: _svg_support(n, enriched=False),
    ("enriched", "svg"): lambda n, _: _svg_support(n, enriched=True),
    ("path", "svg"): lambda n, path: _svg_support(n, False, path),
    ("frame", "svg"): _svg_frame,
    ("staircase", "svg"): _svg_frame,
}


def render(target: str, fmt: str, n: int,
           deltas: Optional[tuple[int, ...]] = None,
           partition: Optional[tuple[int, ...]] = None) -> str:
    """Draw target in fmt at n: "path" needs deltas, "staircase" needs
    partition.  n is capped by max_n_combinatorics (drawings are O(n^2))."""
    if target not in TARGETS:
        raise InvalidSpec(f"unknown target {target!r}")
    if fmt not in FORMATS:
        raise InvalidSpec(f"unknown format {fmt!r}")
    check_int("n", n, 2, error=InvalidSpec)
    check_n(n)

    shape = None
    if target == "path":
        if deltas is None:
            raise InvalidSpec("path rendering needs deltas")
        try:
            shape = DistancePath(n, tuple(deltas))
        except Exception as exc:
            raise InvalidSpec(f"bad deltas: {exc}") from exc
    if target == "staircase":
        if partition is None:
            raise InvalidSpec("staircase rendering needs a partition")
        try:
            shape = EmbeddedPartition(n, tuple(partition))
        except Exception as exc:
            raise InvalidSpec(f"bad partition: {exc}") from exc
    return _DRAWERS[target, fmt](n, shape)
