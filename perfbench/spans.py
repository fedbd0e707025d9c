"""Per-layer spans recorded from outside the simulator.

:func:`install` replaces each layer's entry points (``layers.ENTRY_POINTS``)
with wrappers that record one span per call: its name, start, end and parent
span. Spans live in flat typed arrays, so a pass of a few hundred thousand
calls stays a few megabytes. Wrappers must be installed before an
``Experiment`` is built, because hot paths hoist bound methods at
construction; :func:`install` restores every original on exit.

Job completion callbacks are closures that a layer hands to a CPU core
(``Core.submit_work(..., on_done)``) and cannot be wrapped on a class, so the
``submit_work`` wrapper wraps each one in a span of the layer that submitted
it: the layer of the innermost open span.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from operator import sub
from time import perf_counter_ns
from typing import Dict, Iterator, List, Tuple

from layers import ENTRY_POINTS


class SpanRecorder:
    """In-memory span store for one traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("l")
        self.starts = array("q")
        self.ends = array("q")
        #: Indices of the open spans; ``-1`` is the root.
        self.stack: List[int] = [-1]

    def __len__(self) -> int:
        return len(self.ends)

    def name_id(self, layer: str, name: str) -> int:
        key = f"{layer}:{name}"
        index = self._ids.get(key)
        if index is None:
            index = self._ids[key] = len(self.names)
            self.names.append(key)
            self.layers.append(layer)
        return index

    def span_fn(self, fn, layer: str, name: str):
        """``fn`` recording a ``layer:name`` span per call."""
        name_id = self.name_id(layer, name)
        ids, parents = self.name_ids.append, self.parents.append
        starts, ends = self.starts.append, self.ends
        open_slot = ends.append
        stack = self.stack
        push, pop = stack.append, stack.pop
        clock = perf_counter_ns

        def span(*args, **kwargs):
            index = len(ends)
            ids(name_id)
            parents(stack[-1])
            open_slot(0)
            push(index)
            starts(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                pop()

        span._perfbench_layer = layer
        return span

    def wrap(self, fn, layer: str, name: str):
        return functools.update_wrapper(self.span_fn(fn, layer, name), fn)

    def wrap_submit_work(self, fn, layer: str, name: str):
        """``Core.submit_work`` span that also wraps the job's ``on_done``
        callback in a span of the submitting layer."""
        inner = self.wrap(fn, layer, name)
        span_fn, stack = self.span_fn, self.stack
        layer_of, name_ids = self.layers, self.name_ids

        def callback_span(on_done):
            target = getattr(on_done, "__func__", on_done)
            if on_done is None or hasattr(target, "_perfbench_layer"):
                return on_done
            top = stack[-1]
            owner = layer_of[name_ids[top]] if top >= 0 else "engine"
            return span_fn(on_done, owner, getattr(on_done, "__qualname__", "on_done"))

        def submit_work(*args, **kwargs):
            if len(args) > 3:
                args = args[:3] + (callback_span(args[3]),) + args[4:]
            elif "on_done" in kwargs:
                kwargs["on_done"] = callback_span(kwargs["on_done"])
            return inner(*args, **kwargs)

        submit_work._perfbench_layer = layer
        return functools.update_wrapper(submit_work, fn)

    def self_ns(self) -> array:
        """Each span's duration minus the time its child spans cover."""
        durations = array("q", map(sub, self.ends, self.starts))
        own = array("q", durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def layer_totals(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Per-layer ``(calls, self_ns)``."""
        layer_of = [self.layers[name_id] for name_id in range(len(self.names))]
        calls: Dict[str, int] = {}
        self_ns: Dict[str, int] = {}
        for name_id, own in zip(self.name_ids, self.self_ns()):
            layer = layer_of[name_id]
            calls[layer] = calls.get(layer, 0) + 1
            self_ns[layer] = self_ns.get(layer, 0) + own
        return calls, self_ns

    def folded_stacks(self) -> List[str]:
        """Spans as ``layer;layer;... self_ns`` lines for ``flamegraph.pl``.

        A call into the layer already on top of the stack extends that frame
        rather than adding a ``tcp;tcp`` level.
        """
        paths: List[str] = []
        path_layer: List[str] = []
        path_ids: Dict[Tuple[int, str], int] = {}
        span_path = array("l")
        totals: Dict[int, int] = {}
        layers, parents = self.layers, self.parents
        for index, (name_id, own) in enumerate(zip(self.name_ids, self.self_ns())):
            layer = layers[name_id]
            parent = parents[index]
            parent_path = span_path[parent] if parent >= 0 else -1
            if parent_path >= 0 and path_layer[parent_path] == layer:
                path = parent_path
            else:
                path = path_ids.get((parent_path, layer))
                if path is None:
                    prefix = paths[parent_path] + ";" if parent_path >= 0 else ""
                    path = path_ids[(parent_path, layer)] = len(paths)
                    paths.append(prefix + layer)
                    path_layer.append(layer)
            span_path.append(path)
            totals[path] = totals.get(path, 0) + own
        return sorted(f"{paths[path]} {max(0, ns)}" for path, ns in totals.items())


@contextmanager
def install(recorder: SpanRecorder) -> Iterator[List[str]]:
    """Wrap every entry point for the duration of the block.

    Yields the entry points that were not found (renamed or removed by a
    later change): their layers then report fewer calls instead of failing.
    """
    patched: List[Tuple[object, str, object]] = []
    missing: List[str] = []
    try:
        for layer, module_name, owner_name, attrs in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(module_name)
                continue
            owner = getattr(module, owner_name, None) if owner_name else module
            for attr in attrs:
                label = f"{owner_name}.{attr}" if owner_name else attr
                original = (
                    vars(owner).get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None)
                )
                if not callable(original):
                    missing.append(f"{module_name}.{label}")
                    continue
                if label == "Core.submit_work":
                    wrapper = recorder.wrap_submit_work(original, layer, label)
                else:
                    wrapper = recorder.wrap(original, layer, label)
                patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield missing
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
