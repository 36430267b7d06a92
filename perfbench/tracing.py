"""Spans and call counts recorded from outside the engine.

``install`` wraps every public function of each layer module (and
``QueryResult.to_json_line``) and binds the wrapper into every ``alephcalc``
module namespace that holds the original, so calls between layers go
through it too.  ``uninstall`` puts the originals back.

A ``SpanTracer`` records one span per call: name, start, end, parent and
the op it belongs to, in flat arrays kept in memory until ``write``.  A
``RepeatCounter`` records no times; it counts, per engine layer, calls whose
function and arguments already appeared earlier in the same run.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("ordinals", "cardinals", "hypotheses", "arithmetic", "sizes", "spectra",
          "dsl", "evaluator", "cli")
ENGINE_LAYERS = LAYERS[:6]
JSON_SPAN = "evaluator.to_json_line"


def public_functions(layers):
    """(layer, 'layer.name', function) for each public function of the layers."""
    out = []
    for layer in layers:
        module = sys.modules[f"alephcalc.{layer}"]
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                out.append((layer, f"{layer}.{name}", fn))
    return out


class _Patches:
    def __init__(self):
        self.undo = []

    def bind(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "alephcalc" and not modname.startswith("alephcalc."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self.undo.append((module, attr, original))

    def set_attr(self, owner, attr, wrapper):
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()


class SpanTracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_op = array("i")
        self.stack = [-1]
        self.op = 0
        self.tokens = 0
        self.verdicts: Counter = Counter()
        self._patches = _Patches()

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name: str, post=None):
        fid = self._id(name)
        span_name, start, end, parent, span_op = self.span_name, self.start, self.end, self.parent, self.span_op
        stack = self.stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(fid)
            parent.append(stack[-1])
            span_op.append(tracer.op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if post is not None:
                post(result)
            return result

        return traced

    def _count_tokens(self, tokens):
        self.tokens += len(tokens)

    def _count_verdicts(self, result):
        self.verdicts.update(r.verdict for r in result[0])

    def install(self):
        posts = {"dsl.tokenize": self._count_tokens, "evaluator.evaluate_line": self._count_verdicts}
        for _, name, fn in public_functions(LAYERS):
            self._patches.bind(fn, self._wrap(fn, name, posts.get(name)))
        query_result = sys.modules["alephcalc.evaluator"].QueryResult
        self._patches.set_attr(query_result, "to_json_line",
                               self._wrap(query_result.to_json_line, JSON_SPAN))

    def uninstall(self):
        self._patches.restore()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self time), self = duration minus child spans."""
        n = len(self.span_name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            fid = self.span_name[i]
            calls[fid] += 1
            own[fid] += end[i] - start[i] - child[i]
        return {name: (calls[i], own[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart\tend\tparent\top\n")
            names = self.names
            for i in range(len(self.span_name)):
                out.write(f"{i}\t{names[self.span_name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                          f"\t{self.parent[i]}\t{self.span_op[i]}\n")


class RepeatCounter:
    def __init__(self):
        self.calls: Counter = Counter()
        self.repeats: Counter = Counter()
        self.seen: set[int] = set()
        self._patches = _Patches()

    def _wrap(self, fn, layer: str, name: str):
        calls, repeats, seen = self.calls, self.repeats, self.seen

        def counted(*args, **kwargs):
            calls[layer] += 1
            try:
                key = hash((name, args, tuple(kwargs.items())))
            except TypeError:  # an unhashable argument never counts as a repeat
                key = None
            if key is not None:
                if key in seen:
                    repeats[layer] += 1
                else:
                    seen.add(key)
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for layer, name, fn in public_functions(ENGINE_LAYERS):
            self._patches.bind(fn, self._wrap(fn, layer, name))

    def uninstall(self):
        self._patches.restore()

    def share(self, layer: str) -> float:
        calls = self.calls[layer]
        return self.repeats[layer] / calls if calls else 0.0
