"""Spans around calls into distnull's layers, recorded from outside.

The tracer replaces every public function of each layer module at each
of its name bindings: in the defining module, in the modules that import
it, and in the package namespace.  Calls between functions of one module
resolve through that module's globals, so they are caught too (for
example the CDF calls inside ``special.t_quantile``).  Nothing under
``src/`` changes; ``uninstall`` puts the original functions back.

Spans live in memory as parallel arrays: layer label, parent span,
result id, start and end.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict

LAYERS = ("special", "point", "distributional", "criterion", "varratio", "mc", "cli")
# The cli module has no __all__; its public entry point is main().
_PUBLIC_OVERRIDE = {"cli": ("main",)}
NO_RESULT = -1


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_id: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.result = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.result_id = NO_RESULT
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        import distnull

        modules = {name: importlib.import_module(f"distnull.{name}") for name in LAYERS}
        public: dict[int, tuple[object, str]] = {}
        for name, mod in modules.items():
            for attr in _PUBLIC_OVERRIDE.get(name, getattr(mod, "__all__", ())):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    public[id(obj)] = (obj, f"{name}.{attr}")
        wrappers: dict[int, object] = {}
        for mod in (distnull, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                found = public.get(id(obj))
                if found is None or found[0] is not obj:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, found[1])
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _intern(self, label: str) -> int:
        if label not in self._label_id:
            self._label_id[label] = len(self.labels)
            self.labels.append(label)
        return self._label_id[label]

    def _wrap(self, fn, label: str):
        lid = self._intern(label)
        stack, labels, parents, results, t0s, t1s = (
            self._stack, self.label, self.parent, self.result, self.t0, self.t1,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t0s)
            labels.append(lid)
            parents.append(stack[-1])
            results.append(self.result_id)
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                t0s[idx] = start
                t1s[idx] = end

        return traced

    # -- spans from other processes -----------------------------------

    def dump(self, path: str) -> None:
        doc = {
            "labels": self.labels,
            "label": self.label.tolist(),
            "parent": self.parent.tolist(),
            "t0": self.t0.tolist(),
            "t1": self.t1.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def merge(self, path: str) -> None:
        """Append spans dumped by a child process, under the current result id."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        offset = len(self.t0)
        remap = [self._intern(label) for label in doc["labels"]]
        for lid, parent, t0, t1 in zip(doc["label"], doc["parent"], doc["t0"], doc["t1"]):
            self.label.append(remap[lid])
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.result.append(self.result_id)
            self.t0.append(t0)
            self.t1.append(t1)

    # -- summaries ------------------------------------------------------

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per-label calls, inclusive seconds and self seconds, plus the
    ancestor relations the layer metrics need."""

    def __init__(self, tracer: Tracer) -> None:
        n = len(tracer.t0)
        dur = [tracer.t1[i] - tracer.t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self.labels = tracer.labels
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            label = tracer.labels[tracer.label[i]]
            self.calls[label] += 1
            self.total_s[label] += dur[i]
            self.self_s[label] += dur[i] - child[i]
        self._tracer = tracer

    def layer_self_s(self, layer: str) -> float:
        return sum(s for label, s in self.self_s.items() if label.startswith(layer + "."))

    def count_under(self, label: str, ancestor_prefix: str, results_only: bool = False) -> int:
        """Spans of ``label`` with an ancestor whose label starts with
        ``ancestor_prefix``, optionally only spans of workload results."""
        tr = self._tracer
        target = tr._label_id.get(label)
        if target is None:
            return 0
        count = 0
        for i in range(len(tr.t0)):
            if tr.label[i] != target or (results_only and tr.result[i] == NO_RESULT):
                continue
            p = tr.parent[i]
            while p >= 0:
                if tr.labels[tr.label[p]].startswith(ancestor_prefix):
                    count += 1
                    break
                p = tr.parent[p]
        return count
