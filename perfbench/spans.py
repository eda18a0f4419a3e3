"""In-memory spans around calls into precshrink's public functions.

The traced run wraps the module attributes through which callers look a
function up (``precshrink.simulation.sample_covariance`` as well as
``precshrink.linalg.sample_covariance``), so the package itself carries no
tracing code. A span records its name, start, end, parent span and the id of
the benchmark round it belongs to. Spans stay in memory and are written once
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    run_id: int
    thread: int
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; nested spans of one name collapse."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs) -> Span:
        stack = self._stack()
        # A worker thread's first span hangs under the span the main thread
        # is in, which is the call that started the worker pool.
        if stack:
            parent = stack[-1].id
        else:
            parent = self._main_stack[-1].id if self._main_stack else None
        span = Span(next(self._ids), name, time.perf_counter(), parent, self.run_id,
                    threading.get_ident(), attrs=attrs)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        while stack and stack.pop() is not span:
            pass

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, func, attrs=None):
        """Return ``func`` traced as ``name``; ``attrs(*args)`` labels the span."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            top = self.current()
            if top is not None and top.name == name:
                return func(*args, **kwargs)
            span = self.open(name, **(attrs(*args, **kwargs) if attrs else {}))
            try:
                return func(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def replace_everywhere(self, func, new, package: str = "precshrink") -> None:
        """Rebind every module-level name in ``package`` that refers to ``func``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.replace(module, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans if span.end is not None]


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None and span.end is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        if span.end is None:
            continue
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.seconds - covered
    return result
