"""Outside-in tracer: times calls into quantlab's public functions.

The tracer patches every public function of the ``quantlab`` package at
every binding it can see: the module that defines it, every ``quantlab``
module that imported the name, and the public methods, properties,
classmethods and staticmethods of the package's classes.  Nothing under
``src/`` knows it is being traced, and ``uninstall`` puts every original
object back.

Each call is a span with a name, start, end, parent span and run id.
Spans stay in memory.  Hot functions are aggregated by (name, parent name)
into calls, busy time and self time, and only the first ``span_cap`` spans
of each name are kept whole.  Times are integer nanoseconds from
``time.perf_counter_ns``, so self times sum exactly to their root's busy
time.

Busy time is inclusive; a recursive call adds to it only at its outermost
level.  Self time is busy time minus the time covered by traced children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from contextlib import contextmanager

PACKAGE = "quantlab"


def _short_module(modname: str) -> str:
    return modname.split(".", 1)[1] if "." in modname else modname


def _public(name: str) -> bool:
    return not name.startswith("_")


def _in_package(modname: str) -> bool:
    return modname == PACKAGE or modname.startswith(PACKAGE + ".")


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self, run_id: str = "run", span_cap: int = 200):
        self.run_id = run_id
        self.span_cap = span_cap
        # frame: [span id, name, start ns, child ns]
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self._next_id = 1
        self.stats: dict[tuple[str, str | None], list[int]] = {}
        self.spans: list[tuple] = []
        self._kept: dict[str, int] = {}
        self.arg_hooks: dict[str, object] = {}
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- recording -----------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter_ns(), 0]
        self._next_id += 1
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        depth = self._depth[name] - 1
        self._depth[name] = depth
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        key = (name, parent[1] if parent else None)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0, 0]
        st[0] += 1
        if depth == 0:
            st[1] += dur
        st[2] += dur - child
        kept = self._kept.get(name, 0)
        if kept < self.span_cap:
            self._kept[name] = kept + 1
            self.spans.append(
                (span_id, name, start, end,
                 parent[0] if parent else None, self.run_id)
            )

    @contextmanager
    def span(self, name: str):
        """A span for a block of the benchmark's own code."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn):
        """Return a traced stand-in for ``fn`` recorded under ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            hook = tracer.arg_hooks.get(name)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- aggregates ------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-name calls, busy_s and self_s summed over parents."""
        out: dict[str, dict[str, float]] = {}
        for (name, _parent), (calls, busy, self_ns) in self.stats.items():
            t = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
            t["calls"] += calls
            t["busy_ns"] += busy
            t["self_ns"] += self_ns
        for t in out.values():
            t["busy_s"] = t.pop("busy_ns") / 1e9
            t["self_s"] = t.pop("self_ns") / 1e9
        return out

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrapper_for(self, name: str, fn):
        key = id(fn)
        if key not in self._wrappers:
            self._wrappers[key] = (fn, self.wrap(name, fn))
        return self._wrappers[key][1]

    def _patch_class(self, cls) -> None:
        prefix = f"{_short_module(cls.__module__)}.{cls.__qualname__}"
        for attr, member in list(vars(cls).items()):
            if not _public(attr):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, property) and member.fget is not None:
                new = property(
                    self.wrap(name, member.fget), member.fset, member.fdel,
                    member.__doc__,
                )
            elif isinstance(member, classmethod):
                new = classmethod(self.wrap(name, member.__func__))
            elif isinstance(member, staticmethod):
                new = staticmethod(self.wrap(name, member.__func__))
            elif inspect.isfunction(member):
                new = self.wrap(name, member)
            else:
                continue
            self._set(cls, attr, new)

    def install(self) -> int:
        """Patch every public quantlab function at every binding; return
        the number of bindings patched."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if _in_package(n) and isinstance(m, types.ModuleType)
        ]
        classes = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not _public(attr):
                    continue
                home = getattr(obj, "__module__", None) or ""
                if not _in_package(home):
                    continue
                if inspect.isfunction(obj):
                    name = f"{_short_module(home)}.{obj.__qualname__}"
                    self._set(mod, attr, self._wrapper_for(name, obj))
                elif inspect.isclass(obj) and home == mod.__name__:
                    classes.append(obj)
        for cls in classes:
            self._patch_class(cls)
        return len(self._patches)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def snapshot_bindings() -> dict[tuple[str, str], int]:
    """Identity of every public attribute of every quantlab module and
    class, for checking that ``uninstall`` restored them all."""
    snap = {}
    for modname, mod in sorted(sys.modules.items()):
        if not _in_package(modname):
            continue
        for attr, obj in vars(mod).items():
            if _public(attr):
                snap[(modname, attr)] = id(obj)
            if inspect.isclass(obj) and obj.__module__ == modname:
                for cattr, member in vars(obj).items():
                    if _public(cattr):
                        snap[(f"{modname}.{attr}", cattr)] = id(member)
    return snap
