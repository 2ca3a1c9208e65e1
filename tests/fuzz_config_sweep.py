"""The full single-leaf config sweep, as a script that pytest does not
collect:

    PYTHONPATH=src python tests/fuzz_config_sweep.py

It takes the three valid configs of test_cli_survives_config_mutations
(tests/test_harness.py): a feedforward `train`, a multiplicative `train`
and an `approx-bench` config.  Each leaf value of each is set in turn to
each of 33 values, or deleted.  Those are the tier-1 test's 26 values and
7 large or extreme numbers that the tier-1 test keeps out, because an
accepted one may allocate much or run for long.

Each mutation runs as one `python -m gradednn.cli` process, one at a time,
under a 3 GiB address-space limit (RLIMIT_AS) and a 20 s timeout.  A fault
is any of:

- an exit status other than 0, 2 or 3;
- a traceback;
- anything on stderr at exit 0, or other than one `error:` line at exit 2
  or 3;
- a JSON file left by the run that does not parse or holds NaN or
  Infinity.

The script prints every fault and every timeout.  A timeout is a run that
was still going, such as `max_iters` = 2**70, which runs for as long as it
was asked to; it is listed on its own and is no fault.  The exit status
is 1 if there was a fault, else 0.
"""

from __future__ import annotations

import collections
import copy
import functools
import json
import operator
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from test_harness import _ANY_VALUE, _MUTATION_BASES, _json_paths, _strict_lines

SRC = Path(__file__).resolve().parent.parent / "src"
# each is refused by its reader, fails to allocate under the limit or runs long
_LARGE_VALUES = (2 ** 31, 2 ** 63, -(2 ** 63), 2 ** 70, 10 ** 400, 1e-320,
                 1.7976931348623157e308)
VALUES = _ANY_VALUE + _LARGE_VALUES
DELETE = object()
LIMIT_BYTES = 3 << 30
TIMEOUT_S = 20.0


def mutations():
    """(base name, leaf path, value) of every single-leaf mutation, where
    the value DELETE deletes the leaf."""
    for name, base in sorted(_MUTATION_BASES.items()):
        for path in _json_paths(base):
            if not isinstance(functools.reduce(operator.getitem, path, base), (dict, list)):
                for value in VALUES + (DELETE,):
                    yield name, path, value


def label(name, path, value) -> str:
    where = ".".join(map(str, path))
    if value is DELETE:
        return "%s: del %s" % (name, where)
    text = repr(value)
    return "%s: %s=%s" % (name, where, text if len(text) <= 30 else text[:12] + "...")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))


def run_one(name, path, value, workdir: Path):
    """The exit status of the mutated config's command and its faults, or
    None and no faults if it timed out."""
    doc = copy.deepcopy(_MUTATION_BASES[name])
    *head, key = path
    parent = functools.reduce(operator.getitem, head, doc)
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = value
    config = workdir / "config.json"
    config.write_text(json.dumps(doc))
    argv = [sys.executable, "-m", "gradednn.cli"]
    if name == "approx-bench":
        argv += ["approx-bench", "--config", str(config), "--out", str(workdir / "bench.csv")]
    else:
        argv += ["train", "--config", str(config)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    # its own session, so that a timeout kills the command and its forked child
    proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=_limit_address_space)
    try:
        _, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, []
    code, faults = proc.returncode, []
    if code not in (0, 2, 3):
        faults.append("exit status %d" % code)
    if "Traceback" in err:
        faults.append("traceback")
    lines = err.splitlines()
    if code == 0 and err:
        faults.append("stderr at exit 0: %r" % err[:200])
    if code in (2, 3) and (len(lines) != 1 or not lines[0].startswith("error: ")):
        faults.append("%d stderr lines at exit %d: %r" % (len(lines), code, err[:200]))
    for artifact in sorted([*workdir.rglob("*.json"), *workdir.rglob("*.jsonl")]):
        try:
            _strict_lines(artifact)
        except ValueError as exc:
            faults.append("%s: %s" % (artifact.relative_to(workdir), exc))
    return code, faults


def main() -> int:
    start = time.monotonic()
    exits, timeouts, faults = collections.Counter(), [], []
    for name, path, value in mutations():
        with tempfile.TemporaryDirectory(prefix="fuzz-sweep-") as workdir:
            code, found = run_one(name, path, value, Path(workdir))
        what = label(name, path, value)
        if code is None:
            timeouts.append(what)
            print("timeout: %s" % what, flush=True)
            continue
        exits[code] += 1
        if found:
            faults.append("%s: %s" % (what, "; ".join(found)))
            print("FAULT %s" % faults[-1], flush=True)
    runs = sum(exits.values()) + len(timeouts)
    print("%d runs in %.0f s: %s; %d timed out; %d with a fault"
          % (runs, time.monotonic() - start,
             ", ".join("exit %d: %d" % item for item in sorted(exits.items())),
             len(timeouts), len(faults)))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
