"""Span recorder for the traced run.

The recorder wraps the library's public entry points from outside (the
library itself is not modified): each wrapped call is one span named
after its layer.  A layer's *self time* is its span minus the spans of
the wrapped calls nested inside it, so the self times of one op add up
to the part of the op spent in named layers; the rest is harness glue.

Spans are grouped in :class:`Frame` objects, one per op.  The current
frame lives in a context variable, so two closed-loop connections
interleaved on one asyncio loop keep separate frames, and a worker
thread of the schedule server starts with no frame at all.  Calls made
outside any frame are passed through unrecorded.

Installing patches the wrapped attributes; :meth:`Tracer.uninstall`
restores the originals, so untraced phases run the library unchanged.
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
from typing import Any, Callable, Optional

_FRAME: contextvars.ContextVar[Optional["Frame"]] = contextvars.ContextVar(
    "perfbench_frame", default=None
)


class Frame:
    """Per-layer self time, total time and call counts of one op."""

    __slots__ = ("self_s", "total_s", "calls", "hits", "_stack")

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: schedule-cache lookups answered from the cache
        self.hits = 0
        #: child-time accumulators of the open spans, innermost last
        self._stack: list[float] = []

    def add(self, layer: str, self_s: float, total_s: float) -> None:
        self.self_s[layer] = self.self_s.get(layer, 0.0) + self_s
        self.total_s[layer] = self.total_s.get(layer, 0.0) + total_s
        self.calls[layer] = self.calls.get(layer, 0) + 1

    def merge(self, other: "Frame") -> None:
        for layer, value in other.self_s.items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + value
        for layer, value in other.total_s.items():
            self.total_s[layer] = self.total_s.get(layer, 0.0) + value
        for layer, count in other.calls.items():
            self.calls[layer] = self.calls.get(layer, 0) + count
        self.hits += other.hits

    def self_sum(self) -> float:
        return sum(self.self_s.values())


def _open(frame: Frame) -> float:
    frame._stack.append(0.0)
    return time.perf_counter()


def _close(frame: Frame, layer: str, t0: float) -> None:
    dur = time.perf_counter() - t0
    child = frame._stack.pop()
    if frame._stack:
        frame._stack[-1] += dur
    frame.add(layer, dur - child, dur)


class Tracer:
    """Installs span wrappers on ``(owner, attribute, layer)`` targets."""

    def __init__(self) -> None:
        self._targets: list[tuple[Any, str, Callable[..., Any]]] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()
        #: (frame, wall seconds) recorded on server worker threads, by
        #: request key
        self._adopted: dict[Any, tuple[Frame, float]] = {}

    # -- target registration -------------------------------------------
    def span(self, owner: Any, attr: str, layer: str) -> None:
        """Record calls of ``owner.attr`` as spans of ``layer``."""
        self._targets.append((owner, attr, self._sync_wrapper(layer)))

    def async_span(self, owner: Any, attr: str, layer: str) -> None:
        """Like :meth:`span` for a coroutine function."""
        self._targets.append((owner, attr, self._async_wrapper(layer)))

    def lookup_span(self, owner: Any, attr: str, layer: str,
                    key_arg: int) -> None:
        """A span over a ``get_or_build(key, ...)``-style call returning
        ``(value, hit, seconds)``; hits are counted on the frame.

        Called on a thread with no frame (a server worker), the span
        opens a frame of its own and files it under the call's
        positional argument ``key_arg``, for :meth:`adopt` by the op
        that requested that key."""
        self._targets.append((owner, attr, self._lookup_wrapper(layer,
                                                                key_arg)))

    # -- install / uninstall -------------------------------------------
    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, make in self._targets:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- op frames -------------------------------------------------------
    @staticmethod
    def begin() -> tuple[Frame, contextvars.Token]:
        frame = Frame()
        return frame, _FRAME.set(frame)

    @staticmethod
    def end(token: contextvars.Token) -> None:
        _FRAME.reset(token)

    def clear_adopted(self) -> None:
        with self._lock:
            self._adopted.clear()

    def adopt(self, frame: Frame, key: Any, parent_layer: str) -> None:
        """Merge the worker frame filed under ``key`` into ``frame``.
        The worker ran while the op waited inside ``parent_layer``, so
        the worker's wall time is taken off that layer's self time."""
        with self._lock:
            filed = self._adopted.pop(key, None)
        if filed is None:
            return
        worker, wall = filed
        frame.merge(worker)
        if parent_layer in frame.self_s:
            frame.self_s[parent_layer] -= wall

    # -- wrappers --------------------------------------------------------
    @staticmethod
    def _sync_wrapper(layer: str):
        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                frame = _FRAME.get()
                if frame is None:
                    return fn(*args, **kwargs)
                t0 = _open(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    _close(frame, layer, t0)

            return wrapper

        return make

    @staticmethod
    def _async_wrapper(layer: str):
        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                frame = _FRAME.get()
                if frame is None:
                    return await fn(*args, **kwargs)
                t0 = _open(frame)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    _close(frame, layer, t0)

            return wrapper

        return make

    def _lookup_wrapper(self, layer: str, key_arg: int):
        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                frame = _FRAME.get()
                token = None
                if frame is None:
                    frame, token = self.begin()
                t0 = _open(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    _close(frame, layer, t0)
                    if token is not None:
                        self.end(token)
                        with self._lock:
                            self._adopted[args[key_arg]] = (
                                frame, frame.total_s[layer]
                            )
                if result[1]:
                    frame.hits += 1
                return result

            return wrapper

        return make
