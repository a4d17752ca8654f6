"""Runtime limits for exhaustive enumerations.

The defaults keep every exhaustive sweep at desk scale.  A JSON file
pointed to by the FLAGCOMB_CONFIG environment variable may override them,
e.g. {"max_n_combinatorics": 16, "max_n_flag_exhaustive": 9}.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

ENV_VAR = "FLAGCOMB_CONFIG"

DEFAULT_MAX_N_COMBINATORICS = 14   # paths / partitions / frames
DEFAULT_MAX_N_FLAG_EXHAUSTIVE = 8  # flag-level exhaustive sweeps
DEFAULT_FLAG_FIELDS = (2, 3)


@dataclass(frozen=True)
class Config:
    max_n_combinatorics: int = DEFAULT_MAX_N_COMBINATORICS
    max_n_flag_exhaustive: int = DEFAULT_MAX_N_FLAG_EXHAUSTIVE


def load_config(path: str | None = None) -> Config:
    """Load limits from *path*, the env var, or fall back to defaults.

    The file must hold a JSON object whose keys are Config fields and whose
    values are non-negative ints; anything else raises ValueError.
    """
    if path is None:
        path = os.environ.get(ENV_VAR)
    if not path:
        return Config()
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config {path}: expected a JSON object")
    known = {f.name for f in fields(Config)}
    for key, value in raw.items():
        if key not in known:
            raise ValueError(f"config {path}: unknown key {key!r}")
        if type(value) is not int or value < 0:
            raise ValueError(f"config {path}: {key} must be a non-negative "
                             f"int, got {value!r}")
    return Config(**raw)
