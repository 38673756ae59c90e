"""Toolkit configuration with published defaults.

Loadable from a JSON file (``--config`` or the FAIRWAY_CONFIG environment
variable); unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

from .errors import DomainError, ParseError

ENV_VAR = "FAIRWAY_CONFIG"


@dataclass(frozen=True)
class Config:
    v_min: float = 2.65  # km/h
    tail_fraction: float = 0.001
    k1: float = 4.0  # vessels/km
    v_f: Optional[float] = None  # km/h override; None = derive from data
    gap_bin_width: float = 5.0  # m
    density_bin_width: float = 0.2  # vessels/km
    k_range_min: int = 2
    k_range_max: int = 9

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "v_f" and value is None:
                continue
            kinds = int if f.name.startswith("k_range") else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds) \
                    or not 0 < value < math.inf:
                raise DomainError(f"config field {f.name} must be a finite positive "
                                  f"{'integer' if kinds is int else 'number'}, got {value!r}")
        if not 2 <= self.k_range_min <= self.k_range_max:
            raise DomainError("k_range must satisfy 2 <= min <= max")

    @property
    def k_range(self) -> range:
        return range(self.k_range_min, self.k_range_max + 1)


def load_config(path: Optional[str] = None) -> Config:
    """Config from an explicit path, else FAIRWAY_CONFIG, else defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return Config()
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: cannot read config: {exc}") from exc
    known = {f.name for f in fields(Config)}
    unknown = set(raw) - known
    if unknown:
        raise ParseError(f"{path}: unknown config keys {sorted(unknown)}")
    return replace(Config(), **raw)
