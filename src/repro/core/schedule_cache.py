"""Process-wide cache of communication schedules.

Proposition 3.1 makes schedules cheap — O(td), locally computable — but
"cheap" still means bucket sorts, routing-tree construction and
:class:`~repro.mpisim.datatypes.BlockSet` assembly on every collective
call.  Two observations make a process-wide cache both sound and
profitable:

* schedules are **pure data**: they depend only on the schedule kind,
  the neighborhood, the Cartesian layout, and the byte layout of the
  block descriptions — never on the calling rank (the executing rank is
  resolved at execution time);
* schedules are **isomorphic**: by the Cartesian requirement every rank
  of a communicator needs the *identical* schedule object, so under the
  threaded engine ``p`` rank threads would otherwise build ``p``
  identical copies.

This module therefore keeps one immutable schedule per canonical
fingerprint ``(kind, neighborhood, dims/periods, block-layout
signature)`` in a bounded, thread-safe, exact LRU shared by the whole
process: one :class:`~repro.core.single_flight.SingleFlight` table.
Concurrent requests for the same key are coalesced: exactly one thread
builds, outside the table's lock, and the rest join its build and share
the result (or its error).  Cached schedules are *finalized*
(:meth:`~repro.core.schedule.Schedule.prepare`) so the coalesced-copy
plans are computed once at build time, not per call.

**Eviction racing a build.**  A build completes outside the lock.  If
the cache was invalidated meanwhile (``clear``), the finished schedule
is returned to its caller (it is a correct schedule for the request)
but never filed, and its compiled plans are dropped so the invalidation
cannot leak them; threads joined on that build re-check and one of them
rebuilds.  Every schedule leaving the cache (LRU eviction, ``clear``,
``resize``) drops its plans the same way.

The cache is observable via :func:`cache_info` (hits, misses, builds,
cumulative build time) and per communicator through the ``OpStats``
cache counters; :func:`cache_clear` empties it (tests, long-running
services rotating neighborhoods).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.neighborhood import Neighborhood
from repro.core.single_flight import CacheInfo, SingleFlight
from repro.mpisim.datatypes import BlockSet

#: Default number of distinct schedules kept.  Each entry is small (block
#: descriptions, not data), so the bound exists to keep pathological
#: workloads (e.g. a sweep over thousands of block sizes) from growing
#: without limit, not to save memory in the common case.
DEFAULT_MAXSIZE = 512


def _discard(entry: object) -> None:
    """Invalidate an entry leaving the cache: lowered plans (see
    :mod:`repro.core.plan`) live on the schedule object and share
    its cache lifetime, so they are dropped with it — a stale schedule
    still referenced elsewhere recompiles its plans on next use."""
    clear_plans = getattr(entry, "clear_plans", None)
    if clear_plans is not None:
        clear_plans()


def neighborhood_fingerprint(nbh: Neighborhood) -> tuple:
    """A hashable canonical identity for a neighborhood: the shape rides
    along with the raw offset bytes (two different t×d shapes can share
    a byte string), plus the weights (ignored by the algorithms, but
    kept so a cached schedule's attached neighborhood round-trips)."""
    return (nbh.t, nbh.d, nbh.offsets.tobytes(), nbh.weights)


def blockset_signature(bs: BlockSet) -> tuple:
    """Canonical identity of one block description: the exact ordered
    (buffer, offset, nbytes) triples."""
    return tuple((b.buffer, b.offset, b.nbytes) for b in bs)


def layout_signature(blocksets: Sequence[BlockSet]) -> tuple:
    return tuple(blockset_signature(bs) for bs in blocksets)


def schedule_key(
    kind: str,
    nbh: Neighborhood,
    layout_sig: tuple,
    dims: Optional[tuple] = None,
    periods: Optional[tuple] = None,
) -> tuple:
    """The canonical cache fingerprint.  ``dims``/``periods`` are part of
    the key so communicators with different Cartesian layouts never
    share an entry (schedule *selection* depends on periodicity even
    where schedule content does not)."""
    return (
        kind,
        neighborhood_fingerprint(nbh),
        dims,
        periods,
        layout_sig,
    )


class ScheduleCache:
    """A bounded, thread-safe LRU of immutable schedules with
    single-flight builds (one construction per key, however many rank
    threads ask concurrently)."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self._flights = SingleFlight(maxsize, on_evict=_discard)

    @property
    def maxsize(self) -> int:
        return self._flights.maxsize

    def get_or_build(
        self,
        key: tuple,
        build: Callable[[], object],
        verify: Optional[Callable[[object], None]] = None,
    ) -> tuple[object, bool, float]:
        """Return ``(schedule, hit, build_seconds)``.

        ``hit`` is True when the schedule came from the cache (including
        joining another thread's in-flight build); ``build_seconds``
        (build, finalization and ``verify``) is non-zero only for the
        thread that actually built.

        ``verify``, when given, runs once on a freshly built schedule
        inside the single-flight section (the ``verify_on_build`` hook):
        if it raises, the entry is *not* cached and the error propagates
        to the builder and every caller joined on its build — a
        defective schedule never enters the cache.
        """

        def build_prepared() -> object:
            sched = build()
            prepare = getattr(sched, "prepare", None)
            if prepare is not None:
                prepare()
            if verify is not None:
                verify(sched)
            return sched

        return self._flights.get_or_build(key, build_prepared)

    def get(self, key: tuple) -> Optional[object]:
        """Plain lookup (no build, no waiting); counts a hit or miss."""
        return self._flights.get(key)

    def info(self) -> CacheInfo:
        return self._flights.info()

    def clear(self) -> None:
        self._flights.clear()

    def resize(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self._flights.resize(maxsize)

    def __len__(self) -> int:
        return len(self._flights)


#: The process-wide instance shared by every communicator and runner.
GLOBAL_CACHE = ScheduleCache()


def get_or_build(
    key: tuple,
    build: Callable[[], object],
    verify: Optional[Callable[[object], None]] = None,
) -> tuple[object, bool, float]:
    return GLOBAL_CACHE.get_or_build(key, build, verify)


def cache_info() -> CacheInfo:
    """Counters of the process-wide schedule cache."""
    return GLOBAL_CACHE.info()


def cache_clear() -> None:
    """Empty the process-wide schedule cache and reset its counters."""
    GLOBAL_CACHE.clear()


def cache_resize(maxsize: int) -> None:
    """Change the LRU bound of the process-wide cache."""
    GLOBAL_CACHE.resize(maxsize)
