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

import pytest

from flagcomb.ferrers import iter_partitions
from flagcomb.render import FORMATS, TARGETS, RenderSpec, render
from flagcomb.support_paths import iter_paths

N_RANGE = range(2, 15)
FULL_N = 9
PATH_STRIDE = 97
DRAWS = 300

# (target, format) -> (number of renders, sha256 of the outputs)
DIGESTS = {
    ("support", "ascii"): (13, "09887b8a839189f3c833f2c4a0aa99e68b8cc42b81fdcec2b82c0a814f537147"),
    ("support", "svg"): (13, "8120fd7c8570d4b5b7d6840c3423e91562c6c28b9400314a9a724b6f785fd36d"),
    ("enriched", "ascii"): (13, "4f479bf0affca98e7276b0df5f5791e0aa0f36fb192d13777a822722e7201558"),
    ("enriched", "svg"): (13, "b5a7f7239d5ed9a8f489cc85c705696871e4ead57e3aee65a281573f4c349c3e"),
    ("frame", "ascii"): (13, "8a56797aa4358c16ad922859b4cb9801f9dc7bb36a5186abdcc2b396ac4a79fb"),
    ("frame", "svg"): (13, "a6611c0757040d0d492316bc27ee9590084adbddcc6ca4625aec0ea64860e4a6"),
    ("path", "ascii"): (3219, "2828d06727aa57171113352e0a9ee1d1e00a461fe7dfc92ef8cd7099bec44c3b"),
    ("path", "svg"): (3219, "5449d33b742bab015643b06119436ef4c0c124330dccde62d62734ac74617799"),
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
                yield RenderSpec(target, fmt, n, deltas=p.deltas)
        elif target == "staircase":
            if n > FULL_N:
                parts_list = _drawn_partitions(n)
            else:
                parts_list = [parts for parts, _, _ in iter_partitions(n)]
            for parts in parts_list:
                yield RenderSpec(target, fmt, n, partition=parts)
        else:
            yield RenderSpec(target, fmt, n)


def _digest(target: str, fmt: str) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for spec in _specs(target, fmt):
        h.update(render(spec).encode())
        h.update(b"\0")
        count += 1
    return count, h.hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("target", TARGETS)
def test_render_output_is_pinned(target, fmt):
    assert _digest(target, fmt) == DIGESTS[target, fmt]
