"""An in-memory span recorder that traces the program from outside.

``Tracer.wrap`` replaces a name on a module, class or object with a wrapper
that records a span around each call, at the place where callers look the name
up; ``Tracer.restore`` puts every original back. Spans stay in memory and are
written once, at the end, by ``Tracer.write``.

A span opened in a thread that has no open span of its own (a worker of the
harness's thread pool) takes as parent the innermost open span of the thread
that opened the root, so the pool's work hangs under the call that started it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

_MISSING = object()


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    thread: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def root(self, name: str, run: int) -> Iterator[None]:
        """Open the root span of one timed call, ``run``."""
        self.run = run
        self._home = self._stack()
        span_id, parent, stack, start = self._open()
        try:
            yield
        finally:
            self._close(span_id, name, parent, stack, start, {})

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        measure: Callable[[tuple, dict, Any], dict] | None = None,
    ) -> None:
        """Trace calls to ``owner.attr`` as spans called ``name``.

        ``measure(args, kwargs, result)`` adds counts to the span; it runs
        after the span has ended, so it adds nothing to the span's time.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id, parent, stack, start = tracer._open()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span_id, name, parent, stack, start, {"error": type(exc).__name__})
                raise
            end = time.perf_counter()
            attrs = measure(args, kwargs, result) if measure else {}
            tracer._close(span_id, name, parent, stack, start, attrs, end)
            return result

        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every wrapped name, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), default=str) + "\n")

    # --- internals ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None, list[int], float]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._home[-1] if self._home else None)
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack, time.perf_counter()

    def _close(self, span_id, name, parent, stack, start, attrs, end=None) -> None:
        end = time.perf_counter() if end is None else end
        stack.pop()
        span = Span(span_id, name, start, end, parent, self.run, threading.get_ident(), attrs)
        with self._lock:
            self.spans.append(span)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children in one thread nest and never overlap, but children in different
    threads (pool workers under the call that started them) may overlap each
    other, so the covered part is the length of the union of the children's
    intervals, clipped to the parent.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end)) for c in children.get(span.span_id, ())
        )
        covered, reach = 0.0, span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.span_id] = (span.end - span.start) - covered
    return result
