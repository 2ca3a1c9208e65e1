"""Serialization helpers shared by the file formats.

Every float written to disk uses 17 significant digits, enough to round-trip
a double bit-exactly through text.
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


def dumps17(obj, indent: int = 1) -> str:
    """json.dumps with floats rendered by fmt17 instead of repr."""

    def enc(o, level: int) -> str:
        pad = " " * (indent * level)
        pad1 = " " * (indent * (level + 1))
        if isinstance(o, bool):
            return "true" if o else "false"
        if o is None:
            return "null"
        if isinstance(o, int):
            return str(o)
        if isinstance(o, float):
            if not math.isfinite(o):
                raise ValueError("cannot serialize non-finite float %r" % o)
            return fmt17(o)
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            body = ",\n".join(pad1 + enc(v, level + 1) for v in o)
            return "[\n%s\n%s]" % (body, pad)
        if isinstance(o, dict):
            if not o:
                return "{}"
            body = ",\n".join(
                "%s%s: %s" % (pad1, json.dumps(str(k)), enc(v, level + 1))
                for k, v in o.items()
            )
            return "{\n%s\n%s}" % (body, pad)
        raise TypeError("cannot serialize %r" % type(o).__name__)

    return enc(obj, 0)
