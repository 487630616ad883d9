"""In-memory spans around the calls the benchmark makes into simpson3.

A ``Tracer`` replaces module bindings and class attributes with timing
wrappers, records one span per call (name, start, end, parent, counts) and
puts every original back on ``remove()``.  Spans stay in memory until the
run writes them out.  Aggregation turns them into per-layer call counts,
busy time and self time, where self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for wrapped callables; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable[[tuple, Any], dict] | None = None,
    ) -> Callable:
        """``fn`` recording a span per call; ``count(args, result)`` adds counts."""
        spans, open_stack = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=open_stack[-1] if open_stack else -1)
            open_stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.counts["raised"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                open_stack.pop()
            if count is not None:
                span.counts.update(count(args, result))
            return result

        return wrapper

    def patch_attr(self, owner: Any, attr: str, name: str, count=None) -> None:
        """Wrap one attribute of a module or class."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, count))
        self._patches.append((owner, attr, original))

    def patch_function(self, module: Any, attr: str, name: str, count=None) -> None:
        """Wrap a function at every simpson3 module binding that refers to it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "simpson3" or mod_name.startswith("simpson3.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def remove(self) -> None:
        """Put every wrapped binding back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._open.clear()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.counts]) + "\n")


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: calls, busy time and self time.

    Busy time counts a span only when no ancestor has the same name, so a
    recursive call is not counted twice.
    """
    own = self_times(spans)
    totals: dict[str, LayerTotals] = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.self_s += own[i]
        if not has_ancestor(spans, i, s.name):
            t.busy_s += s.duration
    return totals
