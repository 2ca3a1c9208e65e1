"""Serialization helpers, the one JSON reader behind every file format, and
_split_map, the one fork helper: approx-bench maps its cells and grad-check
its cases through it, a forked child taking the odd positions while this
process takes the even ones.

The one JSON reader: read_json opens every JSON document and refuses a
repeated key, read_object walks every JSON object and list_value every JSON
list, and a checker(value, path) such as int_value or number_value parses
each value, so a fault names its file, then its path down to the key or the
[i] of a list entry.

JSON artifacts are written by the stdlib: a float's repr is the shortest text
that reads back as the same double, so saving and reloading is bit-exact,
-0.0 included, and a non-finite value is refused.  CSV cells and stdout lines
format floats with fmt17, 17 significant digits, which also round-trips.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import pickle
import signal
import threading
from typing import Callable, Optional, Sequence

from .spaces import GradedError, GradingVector, parse_grading


class ConfigError(ValueError):
    """A configuration file is missing something or contradicts itself."""


def _unique_keys(pairs: list) -> dict:
    """The object as a dict; a repeated key, of which json keeps one value, is refused."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        raise ConfigError("duplicate key %s" % next(
            k for k, _ in pairs if k in seen or seen.add(k)))
    return doc


def read_json(path, what: str):
    """The JSON document in the file path, else a ConfigError naming what and path."""
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError("cannot read %s %s: %s" % (what, path, exc)) from None
    except ConfigError as exc:  # a repeated key
        raise ConfigError("%s %s: %s" % (what, path, exc)) from None
    except (ValueError, RecursionError) as exc:  # digit and nesting limits included
        raise ConfigError("%s %s is not valid JSON: %s" % (what, path, exc)) from None


def read_object(doc, table: dict, path: str, name: str = "") -> dict:
    """The keys of the JSON object doc (name, else path), each parsed by the
    checker(value, key_path) that table maps it to with whether it is
    required; a checker of None keeps the value for a rule on several keys.
    path is "" at a document's root, else it prefixes every key path.  Any
    fault is a ConfigError naming its path."""
    if not isinstance(doc, dict):
        raise ConfigError("%s must be a JSON object" % (name or path))
    prefix = path + "." if path else ""
    missing = [prefix + k for k, (required, _) in table.items()
               if required and k not in doc]
    if missing:
        raise ConfigError("missing key %s" % ", ".join(missing))
    unknown = sorted(doc.keys() - table.keys())
    if unknown:
        # a mistyped optional key would otherwise fall back to its default
        raise ConfigError("unknown key %s" % ", ".join(prefix + k for k in unknown))
    return {k: doc[k] if check is None else check(doc[k], prefix + k)
            for k, (_, check) in table.items() if k in doc}


def list_value(value, path: str, item: Callable, n: Optional[int] = None) -> list:
    """[item(v, "path[i]") for each entry v] if value is a JSON list, of
    exactly n entries when n is given, else a ConfigError naming path."""
    if not isinstance(value, list) or (n is not None and len(value) != n):
        raise ConfigError("%s must be a list%s" % (path, "" if n is None else
                                                   " of %d entries" % n))
    return [item(v, "%s[%d]" % (path, i)) for i, v in enumerate(value)]


def parsed(where: str, parse: Callable, *args, **kwargs):
    """parse(*args, **kwargs), a failure raised as ConfigError "where: reason"."""
    try:
        return parse(*args, **kwargs)
    except (ValueError, GradedError) as exc:
        raise ConfigError("%s: %s" % (where, exc)) from None


def is_int(value) -> bool:
    """A JSON integer; Python's bool is an int, JSON's true is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def int_value(value, path: str, low: Optional[int] = None) -> int:
    """value if it is a JSON integer, at least low if given, else a
    ConfigError naming path."""
    if not is_int(value):
        raise ConfigError("%s must be an integer" % path)
    if low is not None and value < low:
        raise ConfigError("%s must be >= %d" % (path, low))
    return value


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


def grading_value(value, path: str) -> GradingVector:
    """The grading a string such as "2,1/2" names, or a ConfigError."""
    return parsed(path, parse_grading, value)


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


def check_writable(path) -> None:
    """Raise the OSError that writing the file path would raise, leaving an
    existing file as it was and creating none: a command checks its output
    path this way before it runs."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _can_split() -> bool:
    """A forked child can run part of a command's work alongside this
    process: the platform forks, at least two CPUs are usable, and no other
    thread is running, whose locks the child would inherit held."""
    return (hasattr(os, "fork") and _usable_cpus() >= 2
            and threading.active_count() == 1)


def _set_blas_threads(n: int) -> Optional[int]:
    """Set numpy's bundled OpenBLAS to n threads and return its previous
    count; None, changing nothing, where numpy exports no such calls."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    old = get()
    put(n)
    return old


_PR_SET_PDEATHSIG = 1  # from <sys/prctl.h>


def _die_with_parent(parent: int) -> None:
    """Have the kernel send this forked process SIGKILL when its parent,
    whose pid is parent, ends, and leave at once if it has already ended.
    Where libc has no prctl (outside Linux) this changes nothing."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _split_map(fn: Callable, items: Sequence) -> list:
    """[fn(x) for x in items].  When _can_split holds and there are two or
    more items, a forked child maps the odd positions while this process
    maps the even ones; otherwise this process maps them all.  An exception
    in the child is raised here, and a child that ends without a reply
    raises ChildProcessError.

    The child sends its results, or its exception, over a pipe as a pickle
    and always leaves through os._exit.  The parent reads the whole pipe
    before it waits, since the reply can exceed the pipe buffer.  On a
    failure here it kills the child before it waits, so the failure is
    raised at once rather than after the child's half; either way it
    waits, so no child outlives the call.  A parent killed outright takes
    its child with it (_die_with_parent): the signal is tied to the thread
    that forked, which is this process's only one (_can_split).

    OpenBLAS runs on one thread in both processes until the call returns:
    _can_split does not see its worker threads, and this process's would
    contend with the child for the CPUs the split counts on.
    """
    if len(items) < 2 or not _can_split():
        return [fn(x) for x in items]
    blas_threads = _set_blas_threads(1)
    try:
        read_fd, write_fd = os.pipe()
        parent = os.getpid()
        pid = os.fork()
        if pid == 0:
            replied = False
            try:
                _die_with_parent(parent)
                os.close(read_fd)
                try:
                    reply = (True, [fn(x) for x in items[1::2]])
                except BaseException as exc:
                    reply = (False, exc)
                with open(write_fd, "wb") as fh:
                    pickle.dump(reply, fh, pickle.HIGHEST_PROTOCOL)
                replied = True
            finally:
                os._exit(0 if replied else 1)
        os.close(write_fd)
        try:
            with open(read_fd, "rb") as fh:
                mine = [fn(x) for x in items[0::2]]
                payload = fh.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
        if status != 0 or not payload:
            code = os.waitstatus_to_exitcode(status)
            how = "exited with code %d" % code if code >= 0 else "ended by signal %d" % -code
            raise ChildProcessError("a forked child process %s without a reply" % how)
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        out = [None] * len(items)
        out[0::2], out[1::2] = mine, value
        return out
    finally:
        if blas_threads is not None:
            _set_blas_threads(blas_threads)
