"""Class-level wrappers around the simulator's public entry points.

A :class:`Recorder` patches the listed methods on their classes for the
duration of a ``with`` block and restores the originals on exit.  It must
be entered *before* the server is built, so that bound methods captured
at construction time are the wrapped ones.

Two modes:

* ``timed=False`` only counts cache-line accesses, once, at the outermost
  :class:`~repro.cache.hierarchy.CacheHierarchy` entry point of each call
  chain (``cpu_access_run`` falls back to ``cpu_access`` for misses;
  ``dma_write`` and ``dma_write_multi`` go through ``dma_write_burst``).
  The count is therefore the same with batched dispatch on or off.
* ``timed=True`` also records one span per call -- name, start, end and
  parent span -- in memory.  :meth:`Recorder.flush` folds the spans into
  per-name call counts and self times (a span's duration minus the time
  its child spans cover) and writes them to a compressed dump.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


def _one(args, kwargs) -> int:
    return 1


def _run_lines(args, kwargs) -> int:
    # cpu_access_run(self, now, core, addrs, ...)
    return len(args[3] if len(args) > 3 else kwargs["addrs"])


def _burst_lines(args, kwargs) -> int:
    # dma_write_burst(self, now, base_addr, lines, ...)
    return args[3] if len(args) > 3 else kwargs["lines"]


def _multi_lines(args, kwargs) -> int:
    # dma_write_multi(self, now, spans, allocating)
    spans = args[2] if len(args) > 2 else kwargs["spans"]
    return sum(lines for _, lines, _ in spans)


CACHE_ENTRY_POINTS: Dict[str, Callable] = {
    "cpu_access": _one,
    "cpu_access_run": _run_lines,
    "dma_write": _one,
    "dma_write_burst": _burst_lines,
    "dma_write_multi": _multi_lines,
    "dma_read": _one,
}
"""Public hierarchy entry points and how many lines each call touches."""

BATCHED_ENTRY_POINTS = ("cpu_access_run", "dma_write_burst", "dma_write_multi")
"""Entry points that can take the batched dispatch path."""

LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.experiments.harness", "Server", "run", "experiments.run"),
    ("repro.sim.sampling", "SampledRun", "run", "sampling.run"),
    ("repro.sim.engine", "Simulator", "run_until", "sim"),
    ("repro.uncore.iio", "IIOAgent", "inbound_write", "uncore.iio.inbound_write"),
    ("repro.uncore.iio", "IIOAgent", "inbound_write_burst",
     "uncore.iio.inbound_write_burst"),
    ("repro.uncore.iio", "IIOAgent", "inbound_write_multi",
     "uncore.iio.inbound_write_multi"),
    ("repro.uncore.iio", "IIOAgent", "outbound_read", "uncore.iio.outbound_read"),
    ("repro.uncore.memory", "MemoryController", "read", "uncore.memory.read"),
    ("repro.uncore.memory", "MemoryController", "write", "uncore.memory.write"),
    ("repro.devices.nvme", "NvmeSsd", "submit", "devices.nvme.submit"),
    ("repro.core.a4", "A4Manager", "on_epoch", "core.on_epoch"),
    ("repro.core.manager", "LlcManager", "set_ways", "core.set_ways"),
    ("repro.core.manager", "LlcManager", "set_port_dca", "core.set_port_dca"),
    ("repro.rdt.cat", "CacheAllocation", "set_mask", "rdt.cat.set_mask"),
    ("repro.telemetry.pcm", "PcmSampler", "sample", "telemetry.pcm.sample"),
)
"""``(module, class, method, span name)`` for every other traced layer."""

CAPTURED = "experiments.run"
"""Span whose return values (the :class:`RunResult` objects) are kept."""


def fold(name_ids, starts, ends, parents, n_names: int):
    """Per-name call counts and self times of a span table.

    ``parents[i]`` is the index of span ``i``'s parent, or -1.  Child
    spans of one parent never overlap (calls are synchronous), so the time
    they cover is the sum of their durations."""
    name_ids = np.asarray(name_ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(ends, dtype=np.float64) - np.asarray(starts)
    nested = parents >= 0
    child_time = np.bincount(parents[nested], weights=durations[nested],
                             minlength=len(durations))
    self_time = durations - child_time
    calls = np.bincount(name_ids, minlength=n_names)
    self_s = np.bincount(name_ids, weights=self_time, minlength=n_names)
    return calls, self_s, durations


class Recorder:
    """Patch the entry points while inside ``with``; see the module doc."""

    def __init__(self, timed: bool) -> None:
        self.timed = timed
        self.top_lines: Dict[str, int] = defaultdict(int)
        """Lines per entry point, counted only at the outermost cache call."""
        self.lines: Dict[str, int] = defaultdict(int)
        """Lines per entry point over every call, nested ones included."""
        self.results: List[Any] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.names: List[str] = []
        self._name_ids = array("H")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._stack: List[int] = []
        self._cache_depth = 0
        self._saved: List[Tuple[type, str, Any]] = []

    # -- install / remove ---------------------------------------------------

    def __enter__(self) -> "Recorder":
        from repro.cache.hierarchy import CacheHierarchy

        for method, lines_of in CACHE_ENTRY_POINTS.items():
            self._patch(CacheHierarchy, method, "cache." + method, lines_of)
        if self.timed:
            for module, cls_name, method, name in LAYER_ENTRY_POINTS:
                cls = getattr(importlib.import_module(module), cls_name)
                self._patch(cls, method, name, None)
        return self

    def __exit__(self, *exc) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def _patch(self, cls: type, method: str, name: str, lines_of) -> None:
        original = cls.__dict__[method]
        self._saved.append((cls, method, original))
        if self.timed:
            self.names.append(name)
            wrapper = self._timed_wrapper(
                original, name, len(self.names) - 1, lines_of)
        else:
            wrapper = self._counting_wrapper(original, name, lines_of)
        wrapper.__name__ = method
        wrapper.__qualname__ = f"{cls.__qualname__}.{method}"
        wrapper.__wrapped__ = original
        setattr(cls, method, wrapper)

    def _counting_wrapper(self, fn, name: str, lines_of):
        rec = self
        top_lines = self.top_lines

        def wrapper(*args, **kwargs):
            if rec._cache_depth == 0:
                top_lines[name] += lines_of(args, kwargs)
            rec._cache_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                rec._cache_depth -= 1

        return wrapper

    def _timed_wrapper(self, fn, name: str, name_id: int, lines_of):
        rec = self
        name_ids, starts = self._name_ids, self._starts
        ends, parents = self._ends, self._parents
        stack = self._stack
        lines = self.lines
        top_lines = self.top_lines
        capture = self.results if name == CAPTURED else None

        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            stack.append(index)
            if lines_of is not None:
                n = lines_of(args, kwargs)
                lines[name] += n
                if rec._cache_depth == 0:
                    top_lines[name] += n
                rec._cache_depth += 1
            start = perf_counter()
            starts.append(start)
            ends.append(start)
            try:
                value = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                if lines_of is not None:
                    rec._cache_depth -= 1
                stack.pop()
            if capture is not None:
                capture.append(value)
            return value

        return wrapper

    # -- results ------------------------------------------------------------

    @property
    def line_accesses(self) -> int:
        """Cache-line accesses, each counted once at its entry point."""
        return sum(self.top_lines.values())

    @property
    def batched_line_share(self) -> float:
        total = self.line_accesses
        if not total:
            return 0.0
        batched = sum(self.top_lines["cache." + m] for m in BATCHED_ENTRY_POINTS)
        return batched / total

    def flush(self, dump: Optional[Path] = None) -> None:
        """Fold the spans recorded so far into call counts, self times and
        ``sim`` (one engine window per epoch) durations, write them to
        ``dump`` (a ``.npz`` file) and free them.  Call when no span is
        open, outside any timed region."""
        if self._stack:
            raise RuntimeError("flush with an open span")
        calls, self_s, durations = fold(
            self._name_ids, self._starts, self._ends, self._parents,
            len(self.names))
        for i, name in enumerate(self.names):
            self.calls[name] += int(calls[i])
            self.self_s[name] += float(self_s[i])
        if "sim" in self.names:
            sim = self.names.index("sim")
            picked = np.asarray(self._name_ids) == sim
            self.durations["sim"].extend(durations[picked].tolist())
        if dump is not None and len(self._starts):
            dump.parent.mkdir(parents=True, exist_ok=True)
            np.savez_compressed(
                dump, names=np.array(self.names),
                name_id=np.asarray(self._name_ids),
                start=np.asarray(self._starts), end=np.asarray(self._ends),
                parent=np.asarray(self._parents),
            )
        for table in (self._name_ids, self._starts, self._ends, self._parents):
            del table[:]

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
