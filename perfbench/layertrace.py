"""Layer spans recorded from outside the program.

The traced run rebinds the module attributes through which callers reach
each layer's public entry points (``repro.apps.timing.effective_bank_
throughput_batch``, ``repro.runtime.search.pareto_ranks``,
``repro.runtime.registry.execute``, ...) to timing wrappers. Nothing in
``src/`` changes; the untraced runs never import this module.

Spans nest: a span's *self* time is its wall time minus the time its
child spans cover, so ``costing.batch`` excludes the SpMU simulation it
triggers. A span re-entered under itself (``estimate_cycles_batch``
streaming through ``iter_cycles_batches``) counts its calls and counters
once, at the outermost frame. Generator results (``iter_cycles_batches``)
are timed across their iteration, each resume as one frame, because the
call itself only builds the generator.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: ``count(args, kwargs, result) -> {counter: increment}`` for calls, or
#: ``count(item) -> {...}`` for each item a wrapped generator yields.
Counter = Callable[..., Dict[str, float]]


class Tracer:
    """In-memory span and counter totals for one process."""

    def __init__(self) -> None:
        self.spans: Dict[str, Dict[str, float]] = {}
        self.counters: Dict[str, float] = {}
        self.keys: Dict[str, set] = {}
        self._stack: List[list] = []

    def _depth(self, name: str) -> int:
        return sum(1 for frame in self._stack if frame[0] == name)

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        elapsed = time.perf_counter() - start
        span = self.spans.setdefault(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
        span["self_s"] += elapsed - child
        if self._depth(name) == 0:
            span["wall_s"] += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed

    def count(self, increments: Dict[str, float]) -> None:
        for key, value in increments.items():
            self.counters[key] = self.counters.get(key, 0.0) + value

    def _mark_call(self, name: str) -> None:
        span = self.spans.setdefault(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
        span["calls"] += 1

    def _iterate(self, name: str, generator, per_item: Optional[Counter]):
        while True:
            outermost = self._depth(name) == 0
            self._enter(name)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._exit()
            if per_item is not None and outermost:
                self.count(per_item(item))
            yield item

    def wrap(
        self,
        name: str,
        function: Callable,
        count: Optional[Counter] = None,
        per_item: Optional[Counter] = None,
        prepare: Optional[Callable] = None,
    ) -> Callable:
        """A timing wrapper around ``function`` recording span ``name``.

        ``prepare(args, kwargs) -> (args, kwargs)`` may materialize a
        one-shot iterable argument so a counter can read it without
        consuming what the function needs.
        """

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            outermost = self._depth(name) == 0
            if outermost:
                self._mark_call(name)
            self._enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._exit()
            if count is not None and outermost:
                self.count(count(args, kwargs, result))
            if inspect.isgenerator(result):
                return self._iterate(name, result, per_item)
            return result

        return traced

    def report(self) -> Dict[str, Any]:
        return {"spans": self.spans, "counters": self.counters}


def rebind(original: Callable, replacement: Callable) -> int:
    """Point every loaded ``repro`` module attribute that holds
    ``original`` at ``replacement``; returns how many were rebound."""
    rebound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    return rebound


def wrap_function(tracer: Tracer, module, attr: str, name: str, **options) -> None:
    """Trace ``module.attr`` everywhere callers look it up."""
    original = getattr(module, attr)
    if rebind(original, tracer.wrap(name, original, **options)) == 0:
        raise RuntimeError(f"{module.__name__}.{attr} is not reachable to trace")


def wrap_method(tracer: Tracer, cls, attr: str, name: str, **options) -> None:
    """Trace one plain method of ``cls``."""
    original = cls.__dict__[attr]
    setattr(cls, attr, tracer.wrap(name, original, **options))


def _first_arg_as_list(parameter: str):
    def prepare(args, kwargs):
        if args:
            return (list(args[0]),) + tuple(args[1:]), kwargs
        kwargs = dict(kwargs)
        kwargs[parameter] = list(kwargs[parameter])
        return args, kwargs

    return prepare


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach.

    Span names are the layer names the benchmark reports under:
    ``profile.execute`` (functional profiling; Figure 6 re-profiling goes
    through it too), ``spmu.scalar`` / ``spmu.batch`` (SpMU simulation),
    ``costing.scalar`` / ``costing.batch`` (cycle and energy costing),
    ``cache`` (profile cache and throughput store I/O), ``sweep.build``,
    ``gmean``, ``pareto.ranks``, ``pareto.frontier``, ``area`` and
    ``store.save`` (search bookkeeping).
    """
    # Every module that binds a layer function by name must be loaded
    # before rebinding, or it would keep the untraced original. Modules are
    # fetched by name: ``repro.runtime`` re-exports a ``sweep`` function
    # that shadows the ``repro.runtime.sweep`` submodule attribute.
    for name in ("repro.eval", "repro.runtime.jobs"):
        importlib.import_module(name)
    timing, area, spmu, cache, dse, registry, search, sweep, stats = (
        importlib.import_module(f"repro.{name}")
        for name in (
            "apps.timing",
            "core.area",
            "core.spmu",
            "runtime.cache",
            "runtime.dse",
            "runtime.registry",
            "runtime.search",
            "runtime.sweep",
            "sim.stats",
        )
    )

    def projections(args, kwargs, result):
        variants = args[0] if args else kwargs["variants"]
        tracer.keys.setdefault("spmu.projections", set()).update(
            (v.ordering, v.bank_mapping, v.allocator_kind, v.config, v.lanes)
            for v in variants
        )
        return {"spmu.batch_variants": len(variants)}

    wrap_function(
        tracer,
        spmu,
        "effective_bank_throughput_batch",
        "spmu.batch",
        count=projections,
        prepare=_first_arg_as_list("variants"),
    )
    wrap_function(tracer, spmu, "measure_bank_utilization", "spmu.scalar")
    wrap_method(tracer, spmu.SparseMemoryUnit, "simulate", "spmu.scalar")
    wrap_function(
        tracer,
        timing,
        "estimate_cycles_batch",
        "costing.batch",
        count=lambda args, kwargs, result: {"costing.batch_cells": result.cycles.size},
    )
    wrap_function(
        tracer,
        timing,
        "iter_cycles_batches",
        "costing.batch",
        per_item=lambda item: {"costing.batch_cells": item[1].cycles.size},
    )
    wrap_function(tracer, timing, "estimate_cycles", "costing.scalar")
    wrap_function(tracer, registry, "execute", "profile.execute")

    def profile_lookup(args, kwargs, result):
        return {"cache.profile_hits" if result is not None else "cache.profile_misses": 1}

    wrap_method(tracer, cache.ProfileCache, "load", "cache", count=profile_lookup)
    wrap_method(tracer, cache.ProfileCache, "store", "cache")
    wrap_method(tracer, cache.ThroughputStore, "load", "cache")
    wrap_method(tracer, cache.ThroughputStore, "load_many", "cache")
    wrap_method(
        tracer,
        cache.ThroughputStore,
        "store",
        "cache",
        count=lambda args, kwargs, result: {"cache.throughput_entries": 1},
    )
    wrap_method(
        tracer,
        cache.ThroughputStore,
        "store_many",
        "cache",
        count=lambda args, kwargs, result: {"cache.throughput_entries": len(args[1])},
    )
    wrap_function(tracer, sweep, "sweep", "sweep.build")
    wrap_function(tracer, stats, "geometric_mean", "gmean")
    wrap_function(tracer, search, "pareto_ranks", "pareto.ranks")
    wrap_function(tracer, dse, "pareto_frontier", "pareto.frontier")
    wrap_function(tracer, area, "capstan_area", "area")
    wrap_method(
        tracer,
        search.SearchStore,
        "save_state",
        "store.save",
        count=lambda args, kwargs, path: {"store.bytes": path.stat().st_size},
    )
    # save_result writes the same payload twice: <key>/result.json and
    # latest.json (the returned path).
    wrap_method(
        tracer,
        search.SearchStore,
        "save_result",
        "store.save",
        count=lambda args, kwargs, path: {"store.bytes": 2 * path.stat().st_size},
    )
