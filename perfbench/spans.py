"""Span recorder for the traced run.

Public functions are wrapped where their caller looks them up (a module
attribute or an instance attribute), so the program under test is not
edited. Each thread keeps its own stack of open spans; a span's self time
is its duration minus the time its child spans cover. A name that no
longer exists cannot be wrapped and is reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start_ns: int = 0
    end_ns: int = 0
    child_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    @property
    def self_ms(self) -> float:
        return (self.end_ns - self.start_ns - self.child_ns) / 1e6


class Recorder:
    """Collects spans in memory; ``take`` hands them over and starts afresh."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        stack.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_ns += span.end_ns - span.start_ns
        with self._lock:
            self._spans.append(span)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> bool:
        """Replace owner.attr with a recording wrapper; False if it is absent.

        on_result(span, args, result) may attach counts to the span.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.add(name)
            return False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)
        return True

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def take(self) -> list[Span]:
        with self._lock:
            spans, self._spans = self._spans, []
        return spans


_MISSING = object()


@dataclass
class Totals:
    calls: int = 0
    ms: float = 0.0
    self_ms: float = 0.0
    attrs: dict = field(default_factory=lambda: defaultdict(float))


def totals(spans: list[Span]) -> dict[str, Totals]:
    """Per span name: call count, total and self milliseconds, summed attrs."""
    out: dict[str, Totals] = defaultdict(Totals)
    for span in spans:
        t = out[span.name]
        t.calls += 1
        t.ms += span.ms
        t.self_ms += span.self_ms
        for key, value in span.attrs.items():
            t.attrs[key] += value
    return out
