"""Serialization helpers shared by the file formats.

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
