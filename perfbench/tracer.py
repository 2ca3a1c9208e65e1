"""Spans around the public functions of the gradednn modules, recorded from
outside the package.

A function is wrapped at every name it is looked up under: `batch_gradient`
calls `gradednn.optimizer.network_backward`, which is the same function
object as `gradednn.gradients.network_backward`, so both bindings are
replaced by one wrapper and the counts add up under the defining module's
name, `gradients.network_backward`.  Public methods are wrapped on their
class, and a class's `__init__` is recorded under the class name, so
`spaces.GradedVector.calls` counts constructions.

Per name the tracer keeps the number of calls, the total time, and the self
time: the total minus the time spent in wrapped callees.  Spans are folded
into these sums as they end rather than stored, so a job with hundreds of
thousands of spans costs no memory.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
import time


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _package_modules(package: str):
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def _traceable(fn) -> bool:
    return inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)


class Tracer:
    """Wraps every public function and method of an imported package.

    `observers` maps a name such as "classical.mlp_train" to a callable
    `(counters, args, kwargs, result)` that adds derived counts to the
    `counters` dict after each call.
    """

    def __init__(self, package: str = "gradednn", observers=None):
        self.modules = _package_modules(package)
        if not self.modules:
            raise RuntimeError("package %s is not imported" % package)
        self.observers = dict(observers or {})
        self.records = {}   # name -> [calls, total_s, self_s]
        self.counters = {}
        self._stack = []    # child time of each open span
        self._patches = []  # (owner, attribute, original, wrapper)
        self._plan()

    def _plan(self) -> None:
        functions = {}  # id(original) -> (name, original)
        methods = []    # (class, attribute, name)
        for mod in self.modules:
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _traceable(obj) and not attr.startswith("_"):
                    functions[id(obj)] = ("%s.%s" % (_short(mod.__name__), attr), obj)
                elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                      and not issubclass(obj, enum.Enum)):
                    for cattr, cobj in vars(obj).items():
                        if not _traceable(cobj):
                            continue
                        if cattr == "__init__":
                            name = "%s.%s" % (_short(mod.__name__), obj.__qualname__)
                        elif not cattr.startswith("_"):
                            name = "%s.%s.%s" % (_short(mod.__name__),
                                                 obj.__qualname__, cattr)
                        else:
                            continue
                        methods.append((obj, cattr, name))
        for name, fn in functions.values():
            wrapper = self._wrap(name, fn)
            for mod in self.modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._patches.append((mod, attr, fn, wrapper))
        for cls, attr, name in methods:
            fn = vars(cls)[attr]
            self._patches.append((cls, attr, fn, self._wrap(name, fn)))

    def _wrap(self, name: str, fn):
        rec = self.records.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        observer = self.observers.get(name)
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child[0]
            if observer is not None:
                observer(counters, args, kwargs, result)
            return result

        return span

    def patch_sites(self):
        """(owner name, attribute) of every binding the tracer replaces."""
        return [(getattr(o, "__name__", repr(o)), a) for o, a, _, _ in self._patches]

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def reset(self) -> None:
        for rec in self.records.values():
            rec[0], rec[1], rec[2] = 0, 0.0, 0.0
        self.counters.clear()

    def snapshot(self) -> dict:
        """Calls, total and self seconds of every name called since reset,
        plus the observers' counters."""
        spans = {name: {"calls": c, "total_s": t, "self_s": s}
                 for name, (c, t, s) in self.records.items() if c}
        return {"spans": spans, "counters": dict(self.counters)}
