"""Spans around the public functions of the seven lgse layers.

`Tracer.install` wraps every public function (and every public method of a
public class) of numerics, posenc, model, objectives, dsp, training and
evaluate. Each wrapper is placed in every `lgse` namespace that holds the
function, because `model.py` does `from .numerics import matmul` and looks the
name up in its own globals. Spans are kept in flat typed arrays while the
benchmark runs and summarized (or saved) afterwards; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("numerics", "posenc", "model", "objectives", "dsp", "training", "evaluate")


def public_functions(modules: dict) -> dict:
    """Map each public function object to its span name, e.g. 'numerics.matmul'
    or 'model.EnhancementModel.mhsa'. Methods map to (class, attr) keys."""
    found: dict = {}
    for layer, mod in modules.items():
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[obj] = f"{layer}.{attr}"
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for name, member in vars(obj).items():
                    if inspect.isfunction(member) and not name.startswith("_"):
                        found[(obj, name)] = f"{layer}.{obj.__name__}.{name}"
    return found


class Tracer:
    """In-memory span recorder. Spans are (name, parent, op, start, end);
    every span under one top-level span shares that span's op id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.wrapped: set[str] = set()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        if not self._stack:
            self.op_id += 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself (an operation, a probe)."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, hook=None):
        nid = self._intern(name)
        probe_id = self._intern("bench.probe") if hook is not None else -1
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                idx = opened(probe_id)
                try:
                    hook(*args, **kwargs)
                finally:
                    closed(idx)
            idx = opened(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)

        return wrapper

    def install(self, modules: dict, hooks: dict | None = None) -> None:
        """Wrap every public function of `modules` wherever lgse looks it up.

        `hooks` maps a span name to a callable run (in a 'bench.probe' span)
        with the same arguments before each call of that function.
        """
        hooks = hooks or {}
        targets = public_functions(modules)
        wrappers = {}
        for key, name in targets.items():
            if isinstance(key, tuple):
                cls, attr = key
                original = vars(cls)[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name, hooks.get(name)))
            else:
                wrappers[key] = self._wrap(key, name, hooks.get(name))
            self.wrapped.add(name)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "lgse" or n.startswith("lgse.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays())


class SpanSummary:
    """Calls, inclusive seconds and self seconds per span name."""

    def __init__(self, names: list[str], spans: dict[str, np.ndarray]):
        self.names = names
        nid, parent = spans["name_id"], spans["parent"]
        dur = spans["end"] - spans["start"]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        n = len(names)
        self.calls = np.bincount(nid, minlength=n)
        self.total_s = np.bincount(nid, weights=dur, minlength=n)
        self.self_s = np.bincount(nid, weights=dur - child, minlength=n)
        self._nid, self._parent = nid, parent
        self.n_spans = int(len(nid))

    def _index(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def calls_of(self, names) -> int:
        idx = [self._index(n) for n in names]
        return int(sum(self.calls[i] for i in idx if i is not None))

    def total_of(self, names) -> float:
        idx = [self._index(n) for n in names]
        return float(sum(self.total_s[i] for i in idx if i is not None))

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return float(sum(s for name, s in zip(self.names, self.self_s)
                         if name.startswith(prefix)))

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return int(sum(c for name, c in zip(self.names, self.calls)
                       if name.startswith(prefix)))

    def calls_under(self, name: str, parent_name: str) -> int:
        """Calls of `name` whose direct parent span is `parent_name`."""
        i, p = self._index(name), self._index(parent_name)
        if i is None or p is None:
            return 0
        mine = self._nid == i
        parents = self._parent[mine]
        parents = parents[parents >= 0]
        return int(np.count_nonzero(self._nid[parents] == p))
