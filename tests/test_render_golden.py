"""Byte-exact pins of every render target and format for n = 2..14.

Each (target, format) pair hashes the outputs of ``render`` over:
support, enriched and frame for every n; every distance path and every
embedded partition (null included) for n <= 9; above that, every
``PATH_STRIDE``-th path of the enumeration and ``DRAWS`` partitions drawn
from a fixed seed (walking all 2.7 million partitions of FF(14) would cost
seconds).  A change to any byte of any drawing changes its digest.
"""

import hashlib
import itertools
import random
import xml.etree.ElementTree as ET

import pytest

from flagcomb.ferrers import iter_partitions
from flagcomb.render import _PAD, FORMATS, TARGETS, render
from flagcomb.support_paths import iter_paths

N_RANGE = range(2, 15)
FULL_N = 9
PATH_STRIDE = 97
DRAWS = 300

# (target, format) -> (number of renders, sha256 of the outputs)
DIGESTS = {
    ("support", "ascii"): (13, "09887b8a839189f3c833f2c4a0aa99e68b8cc42b81fdcec2b82c0a814f537147"),
    ("support", "svg"): (13, "165049313cfcfa78080cfbbf4fe9b7df8f042e948085ced46423eec715a9980d"),
    ("enriched", "ascii"): (13, "4f479bf0affca98e7276b0df5f5791e0aa0f36fb192d13777a822722e7201558"),
    ("enriched", "svg"): (13, "1def14a35fad258f8241680eef4391518badd0cd210ace357bfe04ed6f690a48"),
    ("frame", "ascii"): (13, "8a56797aa4358c16ad922859b4cb9801f9dc7bb36a5186abdcc2b396ac4a79fb"),
    ("frame", "svg"): (13, "a6611c0757040d0d492316bc27ee9590084adbddcc6ca4625aec0ea64860e4a6"),
    ("path", "ascii"): (3219, "2828d06727aa57171113352e0a9ee1d1e00a461fe7dfc92ef8cd7099bec44c3b"),
    ("path", "svg"): (3219, "4d60b4a965f08e0d7cd84b2fdb346489ad86ac65f33c5aa93a9c8952f3249eb5"),
    ("staircase", "ascii"): (8416, "8d301d520823119e34c871e00aeffa6d3e5b5c67d4533253129cbc5ebdc7b161"),
    ("staircase", "svg"): (8416, "41d2d8ae16fea165801c75f53c7b9c2ef702dee5b2d4dad173b6748325a3c3ef"),
}


def _drawn_partitions(n: int) -> list[tuple[int, ...]]:
    """DRAWS partitions fitting FF(n): row i holds at most n - i cells and
    no more than the row above."""
    rng = random.Random(n)
    out = []
    for _ in range(DRAWS):
        parts: list[int] = []
        while rng.random() < 0.85 and len(parts) < n - 1:
            row = len(parts) + 1
            top = min(parts[-1], n - row) if parts else n - 1
            parts.append(rng.randint(1, top))
        out.append(tuple(parts))
    return out


def _specs(target: str, fmt: str):
    for n in N_RANGE:
        if target == "path":
            paths = iter_paths(n, max_n=n)
            if n > FULL_N:
                paths = itertools.islice(paths, 0, None, PATH_STRIDE)
            for p, _ in paths:
                yield target, fmt, n, p.deltas
        elif target == "staircase":
            if n > FULL_N:
                parts_list = _drawn_partitions(n)
            else:
                parts_list = [parts for parts, _, _ in iter_partitions(n)]
            for parts in parts_list:
                yield target, fmt, n, None, parts
        else:
            yield target, fmt, n


def _digest(target: str, fmt: str) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for spec in _specs(target, fmt):
        h.update(render(*spec).encode())
        h.update(b"\0")
        count += 1
    return count, h.hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("target", TARGETS)
def test_render_output_is_pinned(target, fmt):
    assert _digest(target, fmt) == DIGESTS[target, fmt]


def _dot_xs(svg: str) -> list[int]:
    """The x of every dot: a circle's cx, a cross's centre 4 px right of
    the start of its path."""
    xs = []
    for el in ET.fromstring(svg):
        tag = el.tag.rpartition("}")[2]
        if tag == "circle":
            xs.append(int(el.get("cx")))
        elif tag == "path":
            xs.append(int(el.get("d").split()[1]) + 4)
    return xs


@pytest.mark.parametrize("target", ["support", "enriched", "path"])
def test_support_svg_ends_one_pad_right_of_its_rightmost_dot(target):
    for n in N_RANGE:
        deltas = (0,) * (n + 1) if target == "path" else None
        svg = render(target, "svg", n, deltas=deltas)
        width = int(ET.fromstring(svg).get("width"))
        assert width == max(_dot_xs(svg)) + _PAD
