"""In-memory span tracer over finslergo's public functions.

``Tracer.install()`` wraps every public function and method of the library
modules and rebinds the wrapper at every binding site: module globals,
names imported with ``from .x import y`` into other modules and into the
package, and class attributes.  ``numpy.linalg.lstsq`` as seen from
``finslergo.geodesic`` is wrapped too, as ``geodesic.lstsq``.  A wrapper
records a span (name, parent, start, end) only while a root span opened by
the benchmark is active, so output gates run outside the timed calls leave
no spans.  ``uninstall()`` restores every original binding.

Span names are ``<module>.<function>`` for functions and methods and
``<module>.<Class>.init`` for constructors; methods of the same name in one
module share a name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types

import numpy as np

LAYERS = ("lie_algebra", "homogeneous_space", "finsler_metric", "geodesic",
          "s7_catalog", "cli")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = []
        self.parent = []
        self.start = []
        self.end = []
        self._stack = []
        self._patches = []
        self.rank_counts = {}

    # -- recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, on_result=None, root=False):
        """Return fn wrapped in a span called ``name``.

        A root span is always recorded; any other only inside a root span.
        """
        nid = self._nid(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, clock = self.start, self.end, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not (stack or root):
                return fn(*args, **kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def root(self, fn, name):
        """Wrap fn so that every call opens a root span."""
        return self.wrap(fn, name, root=True)

    def _count_rank(self, result):
        self.rank_counts[result.rank] = self.rank_counts.get(result.rank, 0) + 1

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer: str, source: str):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            kind = type(obj) if isinstance(obj, (classmethod, staticmethod)) \
                else None
            fn = obj.__func__ if kind else obj
            if not isinstance(fn, types.FunctionType):
                continue  # properties and data
            if fn.__code__.co_filename != source:
                continue  # generated by dataclasses
            if inspect.isgeneratorfunction(fn):
                continue  # a span would close before the body runs
            name = (f"{layer}.{cls.__name__}.init" if attr == "__init__"
                    else f"{layer}.{attr}")
            wrapped = self.wrap(fn, name)
            self._patch(cls, attr, kind(wrapped) if kind else wrapped)

    def install(self, extra=()):
        """Wrap the library's public functions at every binding site.

        ``extra`` holds ``(owner, attr, span name)`` triples for functions
        of the benchmark itself that should also record spans.
        """
        package = importlib.import_module("finslergo")
        modules = [importlib.import_module(f"finslergo.{m}") for m in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            source = mod.__file__
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer, source)
                elif callable(obj) and not inspect.isgeneratorfunction(obj):
                    on_result = (self._count_rank
                                 if attr == "solve_geodesic_graph" else None)
                    wrappers[id(obj)] = self.wrap(obj, f"{layer}.{attr}",
                                                  on_result)
        for ns in [package, *modules]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._patch(ns, attr, wrappers[id(obj)])

        geodesic = sys.modules["finslergo.geodesic"]
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(np.linalg.__dict__)
        linalg.lstsq = self.wrap(np.linalg.lstsq, "geodesic.lstsq")
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(np.__dict__)
        proxy.linalg = linalg
        self._patch(geodesic, "np", proxy)
        for owner, attr, name in extra:
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def arrays(self, first: int = 0, last: int | None = None):
        """Spans ``first:last``, with parent indices re-based to ``first``.

        The slice must hold whole root spans with their descendants.
        """
        cut = slice(first, last)
        name_id = np.asarray(self.name_id[cut], dtype=np.int64)
        parent = np.asarray(self.parent[cut], dtype=np.int64)
        parent = np.where(parent >= first, parent - first, -1)
        start = np.asarray(self.start[cut])
        end = np.asarray(self.end[cut])
        return name_id, parent, start, end

    def aggregate(self, first: int = 0, last: int | None = None) -> dict:
        """Per span name: call count, total time and self time.

        Self time is a span's duration minus the durations of its direct
        children; on one thread children never overlap.
        """
        name_id, parent, start, end = self.arrays(first, last)
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has],
                            minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        selfs = np.bincount(name_id, weights=self_t, minlength=k)
        return {self.names[i]: {"calls": int(calls[i]),
                                "total_s": float(total[i]),
                                "self_s": float(selfs[i])}
                for i in range(k) if calls[i]}

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names),
                            name_id=name_id, parent=parent,
                            start=start, end=end)
