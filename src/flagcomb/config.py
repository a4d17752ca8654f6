"""Runtime limits for exhaustive enumerations, and render's choices.

The defaults keep every exhaustive sweep at desk scale.  A JSON file
pointed to by the FLAGCOMB_CONFIG environment variable may override them,
e.g. {"max_n_combinatorics": 16}.  The CLI parser reads render's target
and format names here, so that building it loads nothing of render.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

from .errors import EnumerationLimitExceeded, check_int

ENV_VAR = "FLAGCOMB_CONFIG"

DEFAULT_MAX_N_COMBINATORICS = 14   # paths / partitions / frames

TARGETS = ("support", "enriched", "frame", "path", "staircase")  # render
FORMATS = ("ascii", "svg")


class Config(NamedTuple):
    max_n_combinatorics: int = DEFAULT_MAX_N_COMBINATORICS


def load_config() -> Config:
    """Load limits from the file FLAGCOMB_CONFIG names, else the defaults.

    The file must hold a JSON object whose keys are Config fields and whose
    values are non-negative ints; anything else raises ValueError.
    """
    path = os.environ.get(ENV_VAR)
    if not path:
        return Config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"config {path}: {exc.strerror}") from exc
    except ValueError as exc:   # not JSON, or not UTF-8
        raise ValueError(f"config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path}: expected a JSON object")
    for key, value in raw.items():
        if key not in Config._fields:
            raise ValueError(f"config {path}: unknown key {key!r}")
        if type(value) is not int or value < 0:
            raise ValueError(f"config {path}: {key} must be a non-negative "
                             f"int, got {value!r}")
    return Config(**raw)


def check_n(n: int, max_n: int | None = None) -> int:
    """The cap n was checked against: max_n, or the configured
    max_n_combinatorics if None.  Raise ValueError unless n is an int >= 2
    and max_n an int, and EnumerationLimitExceeded if n is over the cap."""
    check_int("n", n, 2)
    if max_n is None:
        max_n = load_config().max_n_combinatorics
    if n > check_int("max_n", max_n):
        raise EnumerationLimitExceeded(f"n={n} exceeds the cap {max_n}")
    return max_n
