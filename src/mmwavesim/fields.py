"""Config fields declared once: default and valid range on the dataclass field.

A field declared with `ranged` carries its `Range` in its metadata, so
the constructor checks (`check_fields`), `ScenarioConfig.validate` and
the config file parser all read one declaration. `same_as` declares a
field with the default and range of a field of another config class,
and records which one, so `shared_values` can build that class's config.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum

from .errors import ConfigError

__all__ = ["Range", "ranged", "same_as", "shared_values", "check_fields", "fmt"]


@dataclass(frozen=True)
class Range:
    """An interval of valid values; `closed` says whether its finite ends
    belong to it. Infinite ends never do, so inf and nan are always out."""

    lo: float = -math.inf
    hi: float = math.inf
    closed: bool = True

    def __contains__(self, value) -> bool:
        if not -math.inf < value < math.inf:
            return False
        if self.closed:
            return self.lo <= value <= self.hi
        return self.lo < value < self.hi

    def __str__(self) -> str:
        left = "[" if self.closed and self.lo > -math.inf else "("
        right = "]" if self.closed and self.hi < math.inf else ")"
        return f"in {left}{self.lo:g}, {self.hi:g}{right}"

    def check(self, name: str, value, where: str = "") -> None:
        if value not in self:
            raise ConfigError(f"{where}{name} must be {self}, got {value!r}")


def ranged(default=MISSING, *, lo=-math.inf, hi=math.inf, closed=True):
    """A dataclass field whose value must lie in Range(lo, hi, closed)."""
    return field(default=default, metadata={"range": Range(lo, hi, closed)})


def same_as(cls, name: str):
    """A field with the default and range of `cls.name`."""
    shared = cls.__dataclass_fields__[name]
    return field(default=shared.default, metadata={**shared.metadata, "same_as": (cls, name)})


def shared_values(obj, cls) -> dict:
    """The values of `obj`'s fields declared `same_as` a field of `cls`,
    keyed by the field names on `cls`."""
    return {
        f.metadata["same_as"][1]: getattr(obj, f.name)
        for f in fields(obj)
        if "same_as" in f.metadata and f.metadata["same_as"][0] is cls
    }


@functools.cache
def _ranged_fields(cls) -> tuple:
    return tuple((f.name, f.metadata["range"]) for f in fields(cls) if "range" in f.metadata)


def check_fields(obj) -> None:
    """Raise ConfigError naming the first field of `obj` outside its range."""
    for name, rng in _ranged_fields(type(obj)):
        rng.check(name, getattr(obj, name))


def fmt(value) -> str:
    """The text of a value in config files and CSVs; floats round-trip."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)
