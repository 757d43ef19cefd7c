"""Span tracing from outside the program.

`Tracer.wrap` replaces a module attribute with a wrapper that records one
span per call: name, start, end and the span that was open when the call
began. Spans live in flat arrays in memory and are written out once, when the
run ends. Wrappers go on the attribute the caller actually looks up (for
example `pqgen.training.encode`, not `pqgen.model.encode`), because a module
that did `from .model import encode` holds its own reference.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open = [-1]
        self.tag = ""               # the training regime a span belongs to
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, module, attr: str, name: str, on_call=None, tagged: bool = False):
        """Trace calls to `module.attr` as spans named `name` (suffixed with
        the current tag when `tagged`). `on_call(tracer, args)` runs before
        each traced call, to count work from the arguments."""
        fn = getattr(module, attr)
        self._undo.append((module, attr, fn))
        nid = self._intern(name)

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            i = len(self.end)
            self.name_id.append(self._intern(f"{name}.{self.tag}") if tagged else nid)
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self._open.append(i)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._open.pop()

        traced.__wrapped__ = fn
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy()}

    def dump(self, path: str) -> None:
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


def self_times(names: list[str], name_id, start, end, parent) -> dict[str, np.ndarray]:
    """Per-span durations with the time of child spans taken out.

    `all` subtracts every direct child; `layer` subtracts only children of
    the same layer (the name before the first dot), so a span keeps the time
    of the lower layers it calls but nested calls within one layer, such as
    `pairwise_bleu -> bleu`, are not counted twice.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    n = dur.size
    layer_ids = {}
    name_layer = np.array([layer_ids.setdefault(layer_of(s), len(layer_ids)) for s in names],
                          dtype=np.int64)
    has = parent >= 0
    child_all = np.bincount(parent[has], weights=dur[has], minlength=n)
    span_layer = name_layer[name_id]
    same = has & (span_layer == span_layer[np.where(has, parent, 0)])
    child_same = np.bincount(parent[same], weights=dur[same], minlength=n)
    return {"dur": dur, "all": dur - child_all, "layer": dur - child_same}


def totals_by_name(names: list[str], name_id, values) -> dict[str, tuple[float, int]]:
    """Sum and count of `values` per span name."""
    name_id = np.asarray(name_id, dtype=np.int64)
    sums = np.bincount(name_id, weights=values, minlength=len(names))
    counts = np.bincount(name_id, minlength=len(names))
    return {s: (float(sums[i]), int(counts[i])) for i, s in enumerate(names)}
