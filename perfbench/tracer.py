"""Span tracer for the benchmark's traced run.

The tracer replaces library functions with thin wrappers at the names
their callers look up: every module attribute of the ``hcwr`` package
bound to a wrapped function, or the attribute of the class that owns a
wrapped method.  Each call records one span (name, start, end, parent)
in flat in-memory arrays; the spans are summarised and written out
after the traced phase ends.  Targets that no longer exist are listed in
``missing`` instead of raising, so the library can drop a function
without breaking the benchmark.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
import weakref
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.missing = []
        self._patches = []
        self._query_keys = weakref.WeakKeyDictionary()

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` runs
        outside the span, for counters read off arguments or results."""
        nid = self._intern(name)
        name_ids, parents = self.name_id, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, package: str, targets):
        """Wrap each ``(module, qualname, span name, after)`` target."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for module_name, qualname, name, after in targets:
            owner = sys.modules.get(f"{package}.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, after)
            if path:  # a method: callers look it up on the class
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def count_query(self, args, result):
        """Counter hook for image-rank queries: distinct (calculator,
        vertex set) keys, so the repeat ratio does not depend on any
        cache inside the library."""
        calc, vertex_set = args[0], args[1]
        keys = self._query_keys.get(calc)
        if keys is None:
            keys = self._query_keys[calc] = set()
        if vertex_set not in keys:
            keys.add(vertex_set)
            self.counts["query_distinct"] += 1

    def count_true(self, key: str):
        def after(args, result):
            if result:
                self.counts[key] += 1
        return after

    def count_visited(self, key: str):
        def after(args, result):
            self.counts[key] += result.labelings_visited
        return after

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by direct child spans)."""
        n = len(self.name_id)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = ends[i] - starts[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write_spans(self, path):
        """Gzipped TSV: span id, op id (root span), parent id, name,
        start and end in seconds of ``time.perf_counter``."""
        n = len(self.name_id)
        root = array("i", [0]) * n
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\top\tparent\tname\tstart\tend\n")
            for i in range(n):
                p = self.parent[i]
                root[i] = i if p < 0 else root[p]
                fh.write(f"{i}\t{root[i]}\t{p}\t{self.names[self.name_id[i]]}"
                         f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
