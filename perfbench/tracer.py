"""Span tracing of orthokit from outside the package.

``Tracer.install()`` rebinds every public function of the traced modules, in
every ``orthokit`` module that holds a reference to it, to a wrapper that
records one span per call: id, name, start, end, thread and parent span.
Spans stay in memory until ``write``.  ``self_times`` subtracts from each
span the time its child spans cover.

``rebind`` is also used on its own, by the untraced runs, to attach result
probes that record no time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

TRACED_MODULES = ("cli", "linalg", "glm", "correct", "evalmodel", "synth", "online")
# Private or method entry points that a per-layer metric names.
EXTRA_TARGETS = (("cli", "_write_csv"), ("linalg", "Projector.complement"))


def rebind(original, replacement) -> int:
    """Replace ``original`` by ``replacement`` wherever an orthokit module
    (or a class defined in one) holds it.  Returns the number of bindings."""
    count = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "orthokit" and not modname.startswith("orthokit."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
            elif inspect.isclass(value) and value.__module__ == modname:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, cattr, replacement)
                        count += 1
    return count


def public_functions(module):
    """``(qualified name, function)`` for the functions a module defines."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name, value in sorted(vars(module).items()):
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield f"{short}.{name}", value


class Tracer:
    """In-memory span recorder for the orthokit modules."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, thread, parent)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.wrapped = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((span_id, name, start, end,
                                       threading.get_ident(), parent))
        return traced

    def install(self) -> None:
        import importlib

        targets = []
        for short in TRACED_MODULES:
            module = importlib.import_module(f"orthokit.{short}")
            targets.extend(public_functions(module))
        for short, dotted in EXTRA_TARGETS:
            owner = importlib.import_module(f"orthokit.{short}")
            for part in dotted.split("."):
                owner = getattr(owner, part)
            targets.append((f"{short}.{dotted.rsplit('.', 1)[-1]}", owner))
        for name, fn in targets:
            if name in self.wrapped:
                continue
            wrapper = self.wrap(name, fn)
            if rebind(fn, wrapper):
                self.wrapped[name] = wrapper

    def self_times(self) -> dict:
        """Total self time in seconds per span name."""
        child_time = defaultdict(float)
        for _, _, start, end, _, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            totals[name] += (end - start) - child_time[span_id]
        return dict(totals)

    def call_counts(self) -> dict:
        counts = defaultdict(int)
        for span in self.spans:
            counts[span[1]] += 1
        return dict(counts)

    def write(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["span_fields"] = ["id", "name", "start", "end", "thread", "parent"]
        payload["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
