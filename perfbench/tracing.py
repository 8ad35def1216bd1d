"""In-memory span tracing around the program's public layer functions.

The program is traced from the outside: :func:`install` replaces each
layer's public functions and methods with wrappers that record a span
(name, start, end, parent, run id, thread) per call.  Spans stay in
memory until :meth:`Tracer.dump` writes them out at the end of a run.

A layer's *self time* is the duration of its spans minus the part of
each span that its child spans (on the same thread) cover.  Wall time
outside every top-level span is reported as ``unattributed_s``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Called after a traced call returns: ``(args, kwargs, result, seconds)``.
OnResult = Callable[[tuple, dict, Any, float], None]


class Tracer:
    """Collects spans and per-name self times; thread-safe."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int, int]] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_run = 0

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn: Callable[..., Any], args: tuple,
             kwargs: dict, on_result: "OnResult | None") -> Any:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent, run_id = stack[-1][0], stack[-1][1]
        else:
            parent = -1
            with self._lock:
                self._next_run += 1
                run_id = self._next_run
        # [span index placeholder, run id, child seconds]
        frame = [-1, run_id, 0.0]
        with self._lock:
            frame[0] = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, run_id, threading.get_ident()))
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][2] += duration
            with self._lock:
                self.spans[frame[0]] = (
                    name, start, end, parent, run_id, threading.get_ident()
                )
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]
                self.calls[name] = self.calls.get(name, 0) + 1
        if on_result is not None:
            on_result(args, kwargs, result, duration)
        return result

    def unattributed(self, start: float, end: float) -> float:
        """Wall time in ``[start, end]`` outside every top-level span."""
        intervals = sorted(
            (max(s, start), min(e, end))
            for _, s, e, parent, _, _ in self.spans
            if parent == -1 and e > start and s < end
        )
        covered = 0.0
        cursor = start
        for s, e in intervals:
            if e <= cursor:
                continue
            covered += e - max(s, cursor)
            cursor = e
        return (end - start) - covered

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "run", "thread"],
                    "spans": self.spans,
                    "counters": self.counters,
                },
                handle,
            )


def _wrap(tracer: Tracer, name: str, fn: Callable[..., Any],
          on_result: "OnResult | None") -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(name, fn, args, kwargs, on_result)

    return traced


def wrap_method(tracer: Tracer, cls: type, attr: str, name: str,
                on_result: "OnResult | None" = None) -> None:
    """Trace ``cls.attr`` for every instance."""
    setattr(cls, attr, _wrap(tracer, name, cls.__dict__[attr], on_result))


def wrap_function(tracer: Tracer, fn: Callable[..., Any], name: str,
                  on_result: "OnResult | None" = None) -> None:
    """Trace a module-level function under every name a loaded ``repro``
    module binds it to (``from x import f`` copies the binding)."""
    traced = _wrap(tracer, name, fn, on_result)
    bound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, traced)
                bound += 1
    if not bound:
        raise RuntimeError(f"{fn.__module__}.{fn.__qualname__} is bound nowhere")
