"""Deterministic ASCII and SVG renderings of the paper-style diagrams.

ASCII legend: 'x' crossed (zero-distance) point, 'o' black circle point,
'*' red circle point, '+' red crossed point.  Path overlays use '/', '-',
'\\' for the polyline and '.' for support points off the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidSpec
from .ferrers import BLACK, EmbeddedPartition, cell_color, staircase_of_partition
from .support_paths import DistancePath

TARGETS = ("support", "enriched", "frame", "path", "staircase")
FORMATS = ("ascii", "svg")


@dataclass(frozen=True)
class RenderSpec:
    target: str
    fmt: str
    n: int
    deltas: Optional[tuple[int, ...]] = None
    partition: Optional[tuple[int, ...]] = None


# ---------------------------------------------------------------------------
# ASCII targets
# ---------------------------------------------------------------------------

def ascii_support(n: int) -> str:
    lines = []
    for delta in range(n // 2, -1, -1):
        mark = "x" if delta == 0 else "o"
        row = [mark if delta <= min(i, n - i) else " " for i in range(n + 1)]
        lines.append(" ".join(row).rstrip())
    return "\n".join(lines)


def _enriched_char(n: int, x: int, y: int) -> str:
    if x % 2 == 0 and y % 2 == 0:
        i, delta = x // 2, y // 2
        if delta <= min(i, n - i):
            return "x" if delta == 0 else "o"
    elif x % 2 == 1 and y % 2 == 1:
        i, delta = (x - 1) // 2, (y - 1) // 2
        if i <= n - 1 and delta <= min(i, n - 1 - i):
            return "+" if delta == 0 else "*"
    return " "


def ascii_enriched(n: int) -> str:
    ymax = max(2 * (n // 2), 2 * ((n - 1) // 2) + 1)
    lines = []
    for y in range(ymax, -1, -1):
        lines.append("".join(_enriched_char(n, x, y)
                             for x in range(2 * n + 1)).rstrip())
    return "\n".join(lines)


def _frame_row(n: int, i: int) -> str:
    """Row i of FF(n), left to right: 'o' black, '*' red (j counts from
    the right)."""
    return "".join("o" if cell_color(n, i, j) == BLACK else "*"
                   for j in range(n - i, 0, -1))


def ascii_frame(n: int) -> str:
    return "\n".join(" " * (i - 1) + _frame_row(n, i) for i in range(1, n))


def ascii_path(p: DistancePath) -> str:
    n = p.n
    ymax = 2 * max(max(p.deltas), 0)
    grid = [[" "] * (2 * n + 1) for _ in range(ymax + 1)]
    for delta in range(n // 2, -1, -1):
        for i in range(n + 1):
            if delta <= min(i, n - i) and 2 * delta <= ymax:
                grid[2 * delta][2 * i] = "."
    for i, delta in enumerate(p.deltas):
        grid[2 * delta][2 * i] = "x" if delta == 0 else "o"
    for i in range(n):
        a, b = p.deltas[i], p.deltas[i + 1]
        ch = "-" if a == b else ("/" if b > a else "\\")
        grid[a + b][2 * i + 1] = ch
    lines = ["".join(row).rstrip() for row in reversed(grid)]
    return "\n".join(lines)


def ascii_staircase(part: EmbeddedPartition) -> str:
    n = part.n
    profile = staircase_of_partition(part).profile
    lines = []
    for i in range(1, n):
        row = _frame_row(n, i)
        cut = len(row) - profile[i - 1]
        lines.append(" " * (i - 1) + row[:cut] + "|" + row[cut:])
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SVG targets.  Minimal, deterministic markup: integer coordinates only.
# ---------------------------------------------------------------------------

_SCALE = 24
_PAD = 20


def _svg_doc(width: int, height: int, elements: list[str]) -> str:
    body = "\n".join("  " + e for e in elements)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n{body}\n</svg>\n')


def _dot(x: int, y: int, color: str, crossed: bool) -> str:
    if crossed:
        s = 4
        return (f'<path d="M {x - s} {y - s} L {x + s} {y + s} '
                f'M {x - s} {y + s} L {x + s} {y - s}" '
                f'stroke="{color}" stroke-width="2" fill="none"/>')
    return f'<circle cx="{x}" cy="{y}" r="4" fill="{color}"/>'


def _support_dots(n: int, enriched: bool) -> list[tuple[int, int, str, bool]]:
    """(x_units, y_units, color, crossed) in doubled grid units."""
    dots = []
    for i in range(n + 1):
        for delta in range(min(i, n - i) + 1):
            dots.append((2 * i, 2 * delta, "#000000", delta == 0))
    if enriched:
        for i in range(n):
            for delta in range(min(i, n - 1 - i) + 1):
                dots.append((2 * i + 1, 2 * delta + 1, "#cc0000", delta == 0))
    return dots


def _svg_from_units(dots, ymax_units: int, n: int,
                    polyline_units=None) -> str:
    width = 2 * n * _SCALE // 2 * 2 + 2 * _PAD
    height = ymax_units * _SCALE // 2 + 2 * _PAD

    def xy(xu: int, yu: int) -> tuple[int, int]:
        return _PAD + xu * _SCALE // 2, _PAD + (ymax_units - yu) * _SCALE // 2

    elements = []
    if polyline_units is not None:
        pts = " ".join("{},{}".format(*xy(xu, yu)) for xu, yu in polyline_units)
        elements.append(f'<polyline points="{pts}" fill="none" '
                        f'stroke="#3366cc" stroke-width="2"/>')
    for xu, yu, color, crossed in dots:
        x, y = xy(xu, yu)
        elements.append(_dot(x, y, color, crossed))
    return _svg_doc(width, height, elements)


def svg_support(n: int, enriched: bool = False,
                path: Optional[DistancePath] = None) -> str:
    ymax = max(2 * (n // 2), (2 * ((n - 1) // 2) + 1) if enriched else 0)
    poly = None
    if path is not None:
        poly = [(2 * i, 2 * d) for i, d in enumerate(path.deltas)]
    return _svg_from_units(_support_dots(n, enriched), ymax, n, poly)


def _frame_dots(n: int) -> list[tuple[int, int, str, bool]]:
    dots = []
    for i in range(1, n):
        # x grows rightwards, right-justified at column n-1
        for left, mark in enumerate(_frame_row(n, i), start=1):
            color = "#000000" if mark == "o" else "#cc0000"
            dots.append(((i - 1) + left, i, color, False))
    return dots


def svg_frame(n: int, partition: Optional[EmbeddedPartition] = None) -> str:
    width = n * _SCALE + 2 * _PAD
    height = n * _SCALE + 2 * _PAD
    elements = []
    if partition is not None:
        profile = staircase_of_partition(partition).profile
        pts = [((n - 1 - profile[0]), 0)]
        for i in range(1, n):
            lam = profile[i - 1] if i <= n - 1 else 0
            pts.append((n - 1 - lam, i))
            nxt = profile[i] if i < n - 1 else 0
            pts.append((n - 1 - nxt, i))
        raw = " ".join(f"{_PAD + x * _SCALE},{_PAD + y * _SCALE}"
                       for x, y in pts)
        elements.append(f'<polyline points="{raw}" fill="none" '
                        f'stroke="#3366cc" stroke-width="2"/>')
    for xu, yu, color, crossed in _frame_dots(n):
        x = _PAD + (xu - 1) * _SCALE + _SCALE // 2
        y = _PAD + (yu - 1) * _SCALE + _SCALE // 2
        elements.append(_dot(x, y, color, crossed))
    return _svg_doc(width, height, elements)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def render(spec: RenderSpec) -> str:
    if spec.target not in TARGETS:
        raise InvalidSpec(f"unknown target {spec.target!r}")
    if spec.fmt not in FORMATS:
        raise InvalidSpec(f"unknown format {spec.fmt!r}")
    if spec.n < 2:
        raise InvalidSpec(f"need n >= 2, got {spec.n}")

    path = partition = None
    if spec.target == "path":
        if spec.deltas is None:
            raise InvalidSpec("path rendering needs deltas")
        try:
            path = DistancePath(spec.n, tuple(spec.deltas))
        except Exception as exc:
            raise InvalidSpec(f"bad deltas: {exc}") from exc
    if spec.target == "staircase":
        if spec.partition is None:
            raise InvalidSpec("staircase rendering needs a partition")
        try:
            partition = EmbeddedPartition(spec.n, tuple(spec.partition))
        except Exception as exc:
            raise InvalidSpec(f"bad partition: {exc}") from exc

    if spec.fmt == "ascii":
        if spec.target == "support":
            return ascii_support(spec.n)
        if spec.target == "enriched":
            return ascii_enriched(spec.n)
        if spec.target == "frame":
            return ascii_frame(spec.n)
        if spec.target == "path":
            return ascii_path(path)
        return ascii_staircase(partition)

    if spec.target == "support":
        return svg_support(spec.n, enriched=False)
    if spec.target == "enriched":
        return svg_support(spec.n, enriched=True)
    if spec.target == "frame":
        return svg_frame(spec.n)
    if spec.target == "path":
        return svg_support(spec.n, enriched=False, path=path)
    return svg_frame(spec.n, partition=partition)
