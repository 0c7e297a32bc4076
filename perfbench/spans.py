"""Spans around calls into bornbench's modules, recorded from outside them.

A hook names a function by where its callers look it up, for example
``bornbench.mmd:circuit_probabilities`` (the name ``mmd_gradient`` resolves
through ``bornbench.mmd``'s globals) or ``bornbench.mmd:KernelSpec.__post_init__``
(an attribute of a class).  Installing a hook replaces that attribute with a
wrapper that records one span per call; ``Hooks.remove_all`` puts every
original back.  A hook whose target does not exist is listed in
``Hooks.missing`` instead of raising, so the benchmark keeps running after the
program is refactored and reports the affected metrics as missing.

Nothing in this module imports bornbench; the hook table lives in
``layers.py``.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from typing import Callable, NamedTuple

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: str
    value: float | None  # per-call quantity such as shots drawn or bytes written


def resolve(target: str):
    """Return ``(owner, attribute)`` for ``module:attr[.attr...]``, or None
    when the module or any attribute on the path is missing."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Hooks:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def install(self, target: str, make_wrapper: Callable) -> bool:
        found = resolve(target)
        if found is None:
            self.missing.append(target)
            return False
        owner, attr = found
        # vars() keeps a staticmethod/classmethod descriptor intact on restore;
        # None means the attribute was inherited and is deleted again
        original = vars(owner).get(attr)
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))
        self._saved.append((owner, attr, original))
        return True

    def remove_all(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


class Tracer:
    """Records spans in memory; one thread-local stack gives each span its
    parent."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrapper(self, name: str, measure: Callable | None = None) -> Callable:
        """Wrapper factory for ``Hooks.install``.  ``measure(args, kwargs,
        result)`` runs after the span has ended and gives its value."""

        def make(fn):
            def traced(*args, **kwargs):
                stack = self._stack()
                parent = stack[-1] if stack else None
                span_id = next(self._ids)
                stack.append(span_id)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                value = measure(args, kwargs, result) if measure else None
                self.spans.append(
                    Span(span_id, name, start, end, parent, threading.get_ident(), self.run, value)
                )
                return result

            traced.__wrapped__ = fn
            return traced

        return make


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children.

    The covered part is the length of the union of the child intervals,
    clipped to the parent, so overlapping children count once.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent in by_id:
            children.setdefault(s.parent, []).append((s.start, s.end))
    result = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        result[s.id] = (s.end - s.start) - covered
    return result
