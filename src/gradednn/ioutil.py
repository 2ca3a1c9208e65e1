"""Serialization helpers and JSON value checks shared by the file formats.

JSON artifacts are written by the stdlib: a float's repr is the shortest text
that reads back as the same double, so saving and reloading is bit-exact,
-0.0 included, and a non-finite value is refused.  CSV cells and stdout lines
format floats with fmt17, 17 significant digits, which also round-trips.
"""

from __future__ import annotations

import json
import math


class ConfigError(ValueError):
    """A configuration file is missing something or contradicts itself."""


def reject_unknown_keys(doc: dict, allowed, prefix: str) -> None:
    """A mistyped optional key would otherwise fall back to its default."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError("unknown key %s" % ", ".join(prefix + k for k in unknown))


def is_int(value) -> bool:
    """A JSON integer; Python's bool is an int, JSON's true is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def int_value(value, path: str) -> int:
    """value if it is a JSON integer, else a ConfigError naming path."""
    if is_int(value):
        return value
    raise ConfigError("%s must be an integer" % path)


def number_value(value, path: str) -> float:
    """value as a float if it is a finite JSON number, else a ConfigError
    naming path.  Python's json also reads NaN, Infinity and integers beyond
    the float range, which are refused."""
    try:
        if (is_int(value) or isinstance(value, float)) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ConfigError("%s must be a number" % path)


def str_value(value, path: str) -> str:
    """value if it is a JSON string, else a ConfigError naming path."""
    if isinstance(value, str):
        return value
    raise ConfigError("%s must be a string" % path)


def fmt17(v: float) -> str:
    v = float(v)
    if not math.isfinite(v):
        # CSV cells may carry inf for diverged runs; JSON never should
        return repr(v)
    return format(v, ".17g")


def write_json(path, doc) -> None:
    """Write doc as indented JSON.  The text is built before the file is
    opened, so a non-finite float raises ValueError and leaves it as it was."""
    text = json.dumps(doc, indent=1, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
