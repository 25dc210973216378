"""Spans around the public functions of each deltasite module, installed
from outside the program and removed again before any untraced timing.

Every public function and public method defined in a layer module is
wrapped.  Each wrapper is bound wherever the original is looked up: on its
own module, on every module that imported it under any name (so
``cli.load_model``, ``sites.event_product`` and ``sheaves.normal_samples``
are traced), and on its class for methods.  Nested spans therefore give
correct self times: a span's self time is its duration minus the durations
of the spans it called.

Spans are aggregated as they close (calls, total and self time per name)
rather than stored; counters are gathered at the same boundaries.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "deltasite"
LAYERS = ("model_io", "categories", "events", "filtration", "sites", "roofs",
          "sheaves", "stochastic", "tropical", "reports", "cli")

HARNESS = "bench.op"


def category_sizes(cat) -> dict:
    """Morphisms (identities included), table sizes and composable chains."""
    into = Counter(m.target for m in cat.morphisms.values())
    out = Counter(m.source for m in cat.morphisms.values())
    return {
        "morphisms": len(cat.morphisms),
        "composition_entries": len(cat.composition),
        "declared_pullbacks": len(cat.pullbacks),
        "composable_pairs": sum(into[o] * out[o] for o in cat.objects),
        "composable_triples": sum(into[m.source] * out[m.target]
                                  for m in cat.morphisms.values()),
    }


# Counters read at a span's boundary: span name -> hook(tracer, args, kwargs,
# result, parent span name).


def _count_load(t, args, kwargs, result, parent):
    t.counters["model_io.load_model.bytes"] += os.path.getsize(args[0])


def _count_render(t, args, kwargs, result, parent):
    t.counters["reports.render.bytes"] += len(result.encode("utf-8"))
    t.counters["reports.records"] += len(args[0].records)


def _count_axioms(t, args, kwargs, result, parent):
    sizes = category_sizes(args[0])
    for key in ("morphisms", "composable_pairs", "composable_triples"):
        t.counters[f"categories.{key}"] += sizes[key]
    t.counters["categories.pullbacks"] += sizes["declared_pullbacks"]


def _count_site_records(t, args, kwargs, result, parent):
    # verify_filtered calls verify_grothendieck per level; count each record once.
    if parent == "sites.verify_filtered":
        return
    for r in result.records:
        t.counters[f"sites.records.{r.check_id}"] += 1


def _count_roof_records(t, args, kwargs, result, parent):
    t.counters["roofs.records"] += len(result.records)


def _count_draws(t, args, kwargs, result, parent):
    t.counters["stochastic.draws"] += len(result)


HOOKS = {
    "model_io.load_model": _count_load,
    "reports.render": _count_render,
    "categories.check_axioms": _count_axioms,
    "sites.verify_grothendieck": _count_site_records,
    "sites.verify_filtered": _count_site_records,
    "roofs.verify_roof_category": _count_roof_records,
    "stochastic.normal_samples": _count_draws,
}


def _public_callables(module):
    """(owner, attribute, raw value, function, span name) for each public
    function and public method defined in module."""
    layer = module.__name__.rsplit(".", 1)[1]
    found = []
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            found.append((module, name, value, value, f"{layer}.{name}"))
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for attr, raw in vars(value).items():
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if not attr.startswith("_") and inspect.isfunction(fn):
                    found.append((value, attr, raw, fn, f"{value.__name__}.{attr}"))
    # A method is named layer.method unless two classes of the layer share it.
    methods = Counter(span.split(".")[1] for owner, *_, span in found
                      if owner is not module)
    named = []
    for owner, attr, raw, fn, span in found:
        if owner is not module:
            span = f"{layer}.{attr}" if methods[attr] == 1 else f"{layer}.{span}"
        named.append((owner, attr, raw, fn, span))
    return named


class Tracer:
    """Install with `install()`, run, then `uninstall()`; statistics are per
    span name: [calls, total seconds, self seconds]."""

    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span name, seconds spent in children]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name):
        """fn inside a span of the given name."""
        hook = HOOKS.get(name)
        stack = self._stack
        stats = self.stats[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(self, args, kwargs, result, stack[-1][0] if stack else None)
            return result

        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            for owner, attr, raw, fn, span in _public_callables(sys.modules[f"{PACKAGE}.{layer}"]):
                wrapper = self.wrap(fn, span)
                wrappers[id(fn)] = (fn, wrapper)
                if inspect.isclass(owner):
                    new = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
                    self._patch(owner, attr, raw, new)
        # Bind each wrapper under every module-level name the original has.
        for module in modules:
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patch(module, attr, value, wrapper)

    def _patch(self, owner, attr, raw, new):
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self):
        """Restore every patched attribute and check, by identity, that the
        original is back."""
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        wrong = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, raw in self._patched if vars(owner)[attr] is not raw]
        patched = len(self._patched)
        self._patched = []
        if wrong:
            raise RuntimeError(f"attributes not restored: {wrong}")
        return patched

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer module (and the benchmark harness)."""
        out = Counter()
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".")[0]] += self_s
        return dict(out)
