"""One typed check for the config dataclasses, and one reader for config sections."""

from __future__ import annotations

import dataclasses
import functools
import sys
import typing

from .errors import ConfigError

_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}
_hints = functools.cache(typing.get_type_hints)  # it evaluates string annotations: ~100 µs


def check_fields(obj, ranges: dict) -> None:
    """Raise ConfigError unless every field of the dataclass obj fits its annotation and range.

    An annotation is int, float (an int or float within the finite float range),
    bool or str, maybe "| None", matched with type() so JSON true is not 1. ranges
    maps a field to (predicate, text), read as "<field> must be <text>"; None skips it.
    """
    hints = _hints(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        kind, *rest = typing.get_args(hints[f.name]) or (hints[f.name],)
        if value is None and rest:
            continue
        fits = type(value) is kind or kind is float and type(value) is int
        if not fits or kind is float and not abs(value) <= sys.float_info.max:  # NaN fails too
            null = " or null" if rest else ""
            raise ConfigError(f"{f.name} must be {_KINDS[kind]}{null}, got {value!r}")
        if f.name in ranges and not ranges[f.name][0](value):
            raise ConfigError(f"{f.name} must be {ranges[f.name][1]}, got {value!r}")


def read_section(name: str, section, keys) -> dict:
    """A copy of a config section: a JSON object keyed only by keys (names, or a dataclass)."""
    if type(section) is not dict:
        raise ConfigError(f"{name} config must be a JSON object, got {section!r}")
    unknown = set(section) - set(getattr(keys, "__dataclass_fields__", keys))
    if unknown:
        raise ConfigError(f"unknown {name} config keys: {sorted(unknown)}")
    return dict(section)
