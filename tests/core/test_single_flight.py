"""The single-flight primitive under thread and event-loop callers."""

import asyncio
import sys
import threading

from repro.core.single_flight import SingleFlight


def test_threads_racing_many_keys_build_each_once():
    """More threads than cores over a few keys with a short switch
    interval: one build per key, every caller of a key gets the same
    object, and no counter update is lost."""
    flights = SingleFlight()
    threads, calls, keys = 8, 300, 16
    results = [[] for _ in range(threads)]
    built = []
    lock = threading.Lock()

    def build(k):
        with lock:
            built.append(k)
        return object()

    def worker(t):
        for i in range(calls):
            k = (t + i) % keys
            value, _hit, _s = flights.get_or_build(k, lambda: build(k))
            results[t].append((k, value))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads)
        ]
        for th in pool:
            th.start()
        for th in pool:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in pool)
    assert sorted(built) == list(range(keys))
    seen = {}
    for per_thread in results:
        for k, value in per_thread:
            assert seen.setdefault(k, value) is value
    info = flights.info()
    assert info.misses == keys and info.builds == keys
    assert info.hits + info.misses == threads * calls


def test_cancelled_joiner_does_not_cancel_the_flight():
    """An event-loop joiner that is cancelled leaves the flight running
    for its owner and the other joiners (a concurrent future may be
    cancelled while pending; the flight's is marked running)."""
    flights = SingleFlight()

    async def main():
        _, flight, owner = flights.claim("k")
        assert owner
        _, joined, joiner_owns = flights.claim("k")
        assert joined is flight and not joiner_owns
        quitter = asyncio.ensure_future(asyncio.wrap_future(joined))
        stayer = asyncio.ensure_future(asyncio.wrap_future(joined))
        await asyncio.sleep(0)
        quitter.cancel()
        await asyncio.sleep(0)
        assert not flight.cancelled()
        flights.settle("k", "value")
        assert await asyncio.wait_for(stayer, 5.0) == ("value", True)
        assert flights.get("k") == "value"

    asyncio.run(main())
