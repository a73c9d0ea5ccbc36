"""In-memory span recorder that measures graphmotive from outside.

The package modules import their collaborators by name (``from .counting
import count_graph``), so each caller holds its own binding. A wrapper is
therefore installed on the attribute the *caller* looks up, e.g.
``graphmotive.motive.count_graph``, and every wrapped attribute is put back
by :meth:`Tracer.restore`.

Spans carry name, start, end, parent span and a request id. A span opened
with ``request=True`` (one verified graph, one count, one psi build) starts
a new request; other spans inherit their parent's. Leaf operations that run
hundreds of thousands of times (minor constructions, edge classification)
are only counted, so the trace does not dominate what it measures.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_span = 0
        self._next_request = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, request: bool) -> tuple[int, int | None, int]:
        stack = self._stack()
        with self._lock:
            span_id = self._next_span
            self._next_span += 1
            if request or not stack:
                req = self._next_request
                self._next_request += 1
            else:
                req = stack[-1][1]
        parent = stack[-1][0] if stack else None
        stack.append((span_id, req))
        return span_id, parent, req

    def _close(self, span_id, parent, req, name, start, status, attrs) -> None:
        end = time.perf_counter()
        self._stack().pop()
        record = {
            "id": span_id,
            "parent": parent,
            "req": req,
            "name": name,
            "start": start,
            "end": end,
            "status": status,
        }
        if attrs:
            record.update(attrs)
        with self._lock:
            self.spans.append(record)

    @contextmanager
    def span(self, name: str, *, request: bool = False):
        span_id, parent, req = self._open(request)
        start = time.perf_counter()
        status = "ok"
        try:
            yield
        except BaseException as exc:
            status = type(exc).__name__
            raise
        finally:
            self._close(span_id, parent, req, name, start, status, None)

    def spanned(self, name: str, fn, *, request: bool = False, attrs=None):
        """Wrap fn so each call is a span; attrs(args, kwargs, result) adds fields."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span_id, parent, req = self._open(request)
            start = time.perf_counter()
            status = "ok"
            extra = None
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, kwargs, result)
                return result
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                self._close(span_id, parent, req, name, start, status, extra)

        return wrapped

    def counted(self, name: str, fn, *, error_name: str | None = None):
        """Wrap fn so each call bumps counts[name]; a raised exception
        additionally bumps counts[error_name]."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            if error_name is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[error_name] += 1
                raise

        return wrapped

    # -- attribute patching -------------------------------------------------

    def patch(self, module, attr: str, wrapper) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back; raise if one did not return."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
            if getattr(module, attr) is not original:
                raise RuntimeError(f"could not restore {module.__name__}.{attr}")

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(s["id"], ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[s["id"]] = (end - start) - covered
    return out
