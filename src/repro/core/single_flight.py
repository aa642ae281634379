"""Single-flight memoization: build once, every concurrent asker shares it.

Proposition 3.1 makes every rank's schedule and plan the same object, so
the stack needs one primitive: a keyed table in which the first asker
for a key builds the value *outside* every lock, and every concurrent
asker of that key joins the one build instead of starting its own.  The
schedule cache (:mod:`repro.core.schedule_cache`), the per-schedule plan
cache (``Schedule._plans``) and the schedule server's served-payload and
plan mirrors (:mod:`repro.serve.server`) all run on :class:`SingleFlight`.

Each key in flight has one :class:`concurrent.futures.Future`.  Thread
callers use :meth:`SingleFlight.get_or_build`, which parks a joiner on
that future.  Event-loop callers :meth:`~SingleFlight.claim` the key;
the owner runs the build wherever it likes (the server's thread pool)
and :meth:`~SingleFlight.settle`\\ s the flight, while joiners ``await
asyncio.wrap_future(future)`` on the loop, so no pool thread is parked
on a join.  The future is marked running when created, so a cancelled
joiner cannot cancel the flight under its owner and the other joiners.
The owner's error reaches every joiner; nothing is filed, so the next
asker after the failure builds again.

``clear`` bumps a generation.  A value whose build straddles a
``clear`` goes back to its caller but is never filed (``on_evict`` runs
on it, as on every entry leaving the table), and thread joiners of such
a stale build re-check, so exactly one of them rebuilds.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, namedtuple
from concurrent.futures import Future
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional

#: marks a key absent from the table (``None`` is a storable value)
_ABSENT = object()

CacheInfo = namedtuple(
    "CacheInfo",
    ["hits", "misses", "builds", "build_seconds", "currsize", "maxsize"],
)


class SingleFlight:
    """A thread-safe keyed table with single-flight builds.

    ``maxsize`` bounds the table as an exact LRU (``None``: unbounded);
    ``on_evict(value)`` runs, outside the lock, on every value leaving
    the table and on every stale build.  Counters: ``hits`` (lookups
    answered from the table or by joining a flight), ``misses`` (flights
    started, plus failed :meth:`get` lookups), ``builds`` and
    ``build_seconds`` (successful builds)."""

    def __init__(
        self,
        maxsize: Optional[int] = None,
        on_evict: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.maxsize = maxsize
        self._on_evict = on_evict
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        #: key -> (future, generation when the flight started)
        self._flights: dict[Hashable, tuple[Future, int]] = {}
        #: bumped by :meth:`clear`; a flight started under an older
        #: generation never files its value
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.build_seconds = 0.0

    # -- the two-step protocol (event-loop callers) ---------------------
    def claim(self, key: Hashable) -> tuple[Any, Optional[Future], bool]:
        """Look ``key`` up, or join or start its flight.

        Returns ``(value, None, False)`` on a hit, ``(None, future,
        False)`` when another caller's build is in flight (the future
        resolves to ``(value, filed)`` or raises the owner's error), and
        ``(None, future, True)`` when the caller now owns the build and
        must :meth:`settle` it, whatever happens."""
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is not _ABSENT:
                self._entries.move_to_end(key)
                self.hits += 1
                return value, None, False
            flight = self._flights.get(key)
            if flight is not None:
                self.hits += 1
                return None, flight[0], False
            self.misses += 1
            future: Future = Future()
            future.set_running_or_notify_cancel()
            self._flights[key] = (future, self.generation)
            return None, future, True

    def settle(
        self,
        key: Hashable,
        value: Any = None,
        *,
        error: Optional[BaseException] = None,
        seconds: float = 0.0,
    ) -> None:
        """End the flight the caller owns: file ``value`` unless a
        :meth:`clear` came after the claim, and hand it (or ``error``)
        to every joiner."""
        evicted: list[Any] = []
        with self._lock:
            future, generation = self._flights.pop(key)
            filed = error is None and generation == self.generation
            if error is None:
                self.builds += 1
                self.build_seconds += seconds
            if filed:
                self._entries[key] = value
                self._entries.move_to_end(key)
                evicted = self._pop_over_bound()
        if error is None and not filed:
            evicted.append(value)
        self._evict(evicted)
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result((value, filed))

    # -- thread callers -------------------------------------------------
    def get_or_build(
        self, key: Hashable, build: Callable[[], Any]
    ) -> tuple[Any, bool, float]:
        """Return ``(value, hit, seconds)``.  ``hit`` is True for a
        table hit and for a join of another thread's build; ``seconds``
        is non-zero only for the thread that built.  A build error
        propagates to the builder and every thread joined on it."""
        while True:
            value, future, owner = self.claim(key)
            if future is None:
                return value, True, 0.0
            if owner:
                break
            value, filed = future.result()
            if filed:
                return value, True, 0.0
            # a clear() made that build stale: re-check, one of us rebuilds
        t0 = time.perf_counter()
        try:
            value = build()
        except BaseException as exc:
            self.settle(key, error=exc)
            raise
        seconds = time.perf_counter() - t0
        self.settle(key, value, seconds=seconds)
        return value, False, seconds

    def get(self, key: Hashable) -> Any:
        """Plain lookup (no build, no waiting); counts a hit or a miss.
        Returns ``None`` when ``key`` is not filed."""
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is _ABSENT:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    # -- maintenance ----------------------------------------------------
    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                hits=self.hits,
                misses=self.misses,
                builds=self.builds,
                build_seconds=self.build_seconds,
                currsize=len(self._entries),
                maxsize=self.maxsize,
            )

    def clear(self) -> None:
        """Drop every entry, reset the counters and bump the generation,
        so no build in flight now is ever filed."""
        with self._lock:
            dropped = list(self._entries.values())
            self._entries.clear()
            self.hits = self.misses = self.builds = 0
            self.build_seconds = 0.0
            self.generation += 1
        self._evict(dropped)

    def resize(self, maxsize: Optional[int]) -> None:
        with self._lock:
            self.maxsize = maxsize
            evicted = self._pop_over_bound()
        self._evict(evicted)

    def _pop_over_bound(self) -> list[Any]:
        """Pop LRU entries above the bound (call with the lock held)."""
        out = []
        while self.maxsize is not None and len(self._entries) > self.maxsize:
            out.append(self._entries.popitem(last=False)[1])
        return out

    def _evict(self, values: Iterable[Any]) -> None:
        if self._on_evict is not None:
            for value in values:
                self._on_evict(value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[Hashable]:
        """The filed keys, least recently used first (a snapshot)."""
        with self._lock:
            return iter(list(self._entries))
