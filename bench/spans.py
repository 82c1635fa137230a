"""Span tracing for the traced benchmark run, and the per-layer metrics.

The layers are the package modules rng, distributions, samplers, distributed
and cli.  The tracer wraps the public functions of each layer module, plus
the draw methods of RandomSource, and installs each wrapper at every place
the function's name is bound: the package modules import each other with
``from .x import y``, so patching only the defining module would let
``srswor.samplers.beta_binomial`` or ``srswor.cli.merge_all`` bypass the
spans.  Each call records a span (name, start, end, parent, op id, words,
items) in memory; at the end of every op the spans are folded into per-name
tallies and cleared, so memory stays bounded by one op's spans.

Self time of a span is its duration minus the time its direct child spans
cover.  Draw counts come from the DrawStats and words_generated deltas of the
sources created during the op, one family at a time: DrawStats families nest
(a binomial draw also counts its uniforms), so they are never summed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("rng", "distributions", "samplers", "distributed", "cli")
RNG_METHODS = ("next_uniform_int", "next_uniform_real")
FAMILIES = ("bernoulli", "binomial", "beta", "beta_binomial", "hypergeometric")
SAMPLERS = {
    "fy": "fisher_yates_sample",
    "sparse": "sparse_fisher_yates",
    "member": "membership_checking_sample",
    "preinit": "preinit_fy_sample_with_undo",
    "select": "selection_sample",
    "inorder": "inorder_sample",
    "reservoir": "reservoir_sample",
}


def _items(result) -> int:
    """Sampled items in a layer function's return value, 0 when it has none."""
    if isinstance(result, tuple) and result:
        result = result[0]
    indices = getattr(result, "indices", result)
    return len(indices) if isinstance(indices, list) else 0


class SpanTotals:
    """Sums over all folded spans of one name."""

    __slots__ = ("calls", "incl_ns", "self_ns", "words", "items")

    def __init__(self) -> None:
        self.calls = self.incl_ns = self.self_ns = self.words = self.items = 0


class Tracer:
    """Span wrappers over one imported srswor package, switched on per op."""

    def __init__(self, api) -> None:
        self.spans: list = []
        self.tallies: dict = defaultdict(SpanTotals)
        self.children: dict = defaultdict(int)  # (parent name, child name) -> calls
        self.draws: dict = defaultdict(int)     # DrawStats family or "words" -> count
        self.ops = 0
        self.span_count = 0
        self._stack: list = []
        self._op = -1
        self._sources: list = []
        self._source_cls = api.RandomSource
        self._bindings = self._bind(api)

    def _bind(self, api) -> list:
        """Every (owner, attribute, original, wrapper) the tracer swaps in."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{api.__name__}.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj, True))
        bindings = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != api.__name__ and not mod_name.startswith(api.__name__ + "."):
                continue
            for attr, obj in vars(module).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    bindings.append((module, attr, obj, hit[1]))
        cls = self._source_cls
        for name in RNG_METHODS:
            method = cls.__dict__[name]
            bindings.append((cls, name, method, self._wrap(f"rng.{name}", method, False)))
        init = cls.__dict__["__init__"]

        @functools.wraps(init)
        def registering_init(source, *args, **kwargs):
            init(source, *args, **kwargs)
            self._sources.append((source, dict(vars(source.stats)), source.words_generated))

        bindings.append((cls, "__init__", init, registering_init))
        return bindings

    def _wrap(self, name: str, fn, count_items: bool):
        spans, stack, source_cls = self.spans, self._stack, self._source_cls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            source = args[0] if args and isinstance(args[0], source_cls) else None
            words = source.words_generated if source is not None else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                if source is not None:
                    words = source.words_generated - words
                spans[idx] = (name, t0, t1, parent, self._op, words,
                              _items(result) if count_items else 0)

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: wrappers are live only inside this block."""
        self._op = op_id
        self._sources = []
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._bindings:
                setattr(owner, attr, original)
            self._fold()

    def _fold(self) -> None:
        spans = self.spans
        covered = [0] * len(spans)
        for _, t0, t1, parent, _, _, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for idx, (name, t0, t1, parent, _, words, items) in enumerate(spans):
            tally = self.tallies[name]
            tally.calls += 1
            tally.incl_ns += t1 - t0
            tally.self_ns += t1 - t0 - covered[idx]
            tally.words += words
            tally.items += items
            if parent >= 0:
                self.children[(spans[parent][0], name)] += 1
        for source, stats, words in self._sources:
            for family, before in stats.items():
                self.draws[family] += getattr(source.stats, family) - before
            self.draws["words"] += source.words_generated - words
        self.span_count += len(spans)
        self.ops += 1
        spans.clear()

    def layer_self_ns(self, layer: str) -> int:
        return sum(t.self_ns for name, t in self.tallies.items() if name.startswith(layer + "."))

    def layer_calls(self, layer: str) -> int:
        return sum(t.calls for name, t in self.tallies.items() if name.startswith(layer + "."))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, items: int) -> dict:
    """Per-layer metrics of the traced ops as name -> (value, unit).

    A layer the ops never reached reads 0.
    """
    t, ops, draws = tracer.tallies, tracer.ops, tracer.draws
    uniform_int = t["rng.next_uniform_int"]
    m = {
        "rng.words_per_item": (_ratio(draws["words"], items), "words/item"),
        "rng.words_per_uniform_draw": (_ratio(uniform_int.words, uniform_int.calls),
                                       "words/draw"),
        "rng.uniform_int_per_item": (_ratio(draws["uniform_int"], items), "draws/item"),
        "rng.uniform_real_per_item": (_ratio(draws["uniform_real"], items), "draws/item"),
        "rng.self_ms_per_op": (_ratio(tracer.layer_self_ns("rng") / 1e6, ops), "ms/op"),
    }
    for family in FAMILIES:
        m[f"distributions.{family}.calls_per_op"] = (_ratio(draws[family], ops), "calls/op")
    for family in ("binomial", "beta_binomial", "hypergeometric"):
        tally = t[f"distributions.{family}"]
        m[f"distributions.{family}.words_per_call"] = (_ratio(tally.words, tally.calls),
                                                       "words/call")
    for family in ("binomial", "hypergeometric"):
        tally = t[f"distributions.{family}"]
        m[f"distributions.{family}.us_per_call"] = (_ratio(tally.incl_ns / 1e3, tally.calls),
                                                    "us/call")
    m["distributions.self_ms_per_op"] = (
        _ratio(tracer.layer_self_ns("distributions") / 1e6, ops), "ms/op")
    m["samplers.self_us_per_call"] = (
        _ratio(tracer.layer_self_ns("samplers") / 1e3, tracer.layer_calls("samplers")), "us/call")
    for short, name in SAMPLERS.items():
        tally = t[f"samplers.{name}"]
        m[f"samplers.{short}.us_per_item"] = (_ratio(tally.incl_ns / 1e3, tally.items), "us/item")
    member = "samplers." + SAMPLERS["member"]
    m["samplers.member.draws_per_item"] = (
        _ratio(tracer.children[(member, "rng.next_uniform_int")], t[member].items), "draws/item")
    for short, name in (("split", "split_sample_counts"), ("merge", "merge_all_with_state"),
                        ("downsample", "downsample")):
        m[f"distributed.{short}_ms_per_op"] = (
            _ratio(t[f"distributed.{name}"].incl_ns / 1e6, ops), "ms/op")
    m["distributed.self_ms_per_op"] = (
        _ratio(tracer.layer_self_ns("distributed") / 1e6, ops), "ms/op")
    m["distributed.merged_over_target"] = (
        _ratio(t["distributed.merge_all_with_state"].items, t["distributed.downsample"].items),
        "ratio")
    m["trace.spans_per_op"] = (_ratio(tracer.span_count, ops), "spans/op")
    return m
