"""``serve-mix``: the schedule server under a closed-loop request mix.

An in-process ``ScheduleServer`` (verify on, workers <= cores) listens
on a unix socket in the working directory.  ``CONNECTIONS`` (<= cores)
``AsyncScheduleClient`` connections on one asyncio loop each send their
next request only when the previous answer has arrived and decoded.
Four requests in five name one of ``HOT_KEYS`` hot keys (answered from
the server's ready mirror); the fifth is a fresh seeded key, a real
certified build.  One op is one request plus
``schedule_from_dict``, timed at the client for every sample.

Every request is a combining alltoallv over the 2-D Moore neighborhood
on a (6, 6) torus with seeded block sizes, so fresh builds cost about
the same and the 90th percentile sits on the build path while the
median sits on the hit path.  An op fails if it raises, is not ``certified``, or decodes to a
round count or volume other than a local build of the same request.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from typing import Any, Iterator

import numpy as np

from harness import Phase
from repro.core import schedule_cache
from repro.serve import AsyncScheduleClient, ScheduleRequest, ScheduleServer

HOT_KEYS = 16
#: one request in every FRESH_EVERY per connection is fresh (at a seeded
#: position), so the fresh share is exact and only its order is random
FRESH_EVERY = 5
CONNECTIONS = min(2, os.cpu_count() or 1)
WORKERS = min(2, os.cpu_count() or 1)
DIMS = (6, 6)
#: the 2-D Moore neighborhood (t = 8) every request uses
OFFSETS = [
    [x, y] for x in (-1, 0, 1) for y in (-1, 0, 1) if (x, y) != (0, 0)
]


def make_request(sizes: list[int]) -> ScheduleRequest:
    """An alltoallv request with per-neighbor block ``sizes``, in wire
    form and parsed like the server parses it (so the client-side key
    equals the server's)."""
    offs = np.concatenate([[0], np.cumsum(sizes)])
    send = [[["send", int(offs[i]), n]] for i, n in enumerate(sizes)]
    recv = [[["recv", int(offs[i]), n]] for i, n in enumerate(sizes)]
    return ScheduleRequest.from_dict({
        "kind": "alltoall",
        "algorithm": "combining",
        "offsets": OFFSETS,
        "dims": list(DIMS),
        "periods": [True] * len(DIMS),
        "send": send,
        "recv": recv,
    })


def seeded_sizes(rng: np.random.Generator) -> list[int]:
    return [4 * int(k) for k in rng.integers(1, 17, len(OFFSETS))]


#: the set-up request: the same every run, so set-up time does not
#: depend on the seed
SETUP_SIZES = [32] * len(OFFSETS)


class ServeMix:
    """The :class:`harness.Runner` of the serve-mix workload."""

    name = "serve-mix"
    floor_bytes = 0
    #: set-up repetitions: each takes well under a second, but its
    #: certified build is interpreter-bound and its speed drifts on a
    #: shared host, so the median is taken over many
    setup_reps = 15

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: the self-test sets this to damage every decoded answer
        self.corrupt = False
        self.path = f".perfbench-{os.getpid()}.sock"
        self.setup_path = f".perfbench-{os.getpid()}-setup.sock"
        self.loop = asyncio.new_event_loop()
        self.server: ScheduleServer | None = None
        self.clients: list[AsyncScheduleClient] = []
        rng = np.random.default_rng([seed, 5])
        self.seen: set = set()
        self.hot: list[tuple[ScheduleRequest, tuple]] = []
        while len(self.hot) < HOT_KEYS:
            self.hot.append(self._fresh(rng))
        #: canonical key -> (rounds, volume bytes) of a local build
        self.expected: dict[tuple, tuple[int, int]] = {}
        self.streams = [self._requests(c) for c in range(CONNECTIONS)]

    # -- inputs ----------------------------------------------------------
    def _fresh(self, rng: np.random.Generator) -> tuple[ScheduleRequest,
                                                        tuple]:
        while True:
            req = make_request(seeded_sizes(rng))
            key = req.canonical_key()
            if key not in self.seen:
                self.seen.add(key)
                return req, key

    def _requests(self, conn: int) -> Iterator[tuple[ScheduleRequest,
                                                     tuple]]:
        rng = np.random.default_rng([self.seed, 6, conn])
        while True:
            fresh_at = int(rng.integers(FRESH_EVERY))
            for k in range(FRESH_EVERY):
                if k == fresh_at:
                    yield self._fresh(rng)
                else:
                    yield self.hot[int(rng.integers(len(self.hot)))]

    def _local(self, req: ScheduleRequest, key: tuple) -> tuple[int, int]:
        got = self.expected.get(key)
        if got is None:
            sched = req.build()
            got = self.expected[key] = (sched.num_rounds, sched.volume_bytes)
        return got

    # -- server lifecycle ----------------------------------------------
    @staticmethod
    async def _serve(path: str, cache: schedule_cache.ScheduleCache
                     ) -> tuple[ScheduleServer, list[AsyncScheduleClient]]:
        server = ScheduleServer(path=path, workers=WORKERS, verify=True,
                                cache=cache)
        await server.start()
        clients = [
            await AsyncScheduleClient.connect(path)
            for _ in range(CONNECTIONS)
        ]
        return server, clients

    @staticmethod
    async def _shut(server: ScheduleServer | None,
                    clients: list[AsyncScheduleClient], path: str) -> None:
        for client in clients:
            await client.close()
        if server is not None:
            await server.stop()
        if os.path.exists(path):
            os.unlink(path)

    async def _stop(self) -> None:
        server, clients = self.server, self.clients
        self.server, self.clients = None, []
        await self._shut(server, clients, self.path)

    # -- one op ----------------------------------------------------------
    async def _op(self, client: AsyncScheduleClient, req: ScheduleRequest,
                  key: tuple, out: Phase, records: list, tracer: Any
                  ) -> None:
        out.attempted += 1
        frame = token = None
        if tracer is not None:
            frame, token = tracer.begin()
        t0 = time.perf_counter()
        try:
            sched, response = await client.request_schedule(req)
        except Exception as exc:  # an op that raises is a failed op
            print(f"# serve-mix: request raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            out.failed += 1
            return
        finally:
            dt = time.perf_counter() - t0
            if token is not None:
                tracer.end(token)
        if frame is not None:
            tracer.adopt(frame, key, "serve.rpc")
            out.frames.append((frame, dt))
        rounds = sched.num_rounds + (1 if self.corrupt else 0)
        records.append((req, key, response.get("certified") is True,
                        rounds, sched.volume_bytes))
        out.latencies.append(dt)

    def _check(self, records: list, out: Phase) -> None:
        for req, key, certified, rounds, volume in records:
            if not certified or (rounds, volume) != self._local(req, key):
                out.failed += 1

    # -- runner interface ----------------------------------------------
    def setup(self, reps: int, tracer: Any) -> Phase:
        """Each repetition brings up a second server with an empty
        schedule cache: server start, connects and the first request (a
        certified build) answered.  The mix's own server keeps running,
        so bring-ups can come between segments of the timed phase.  The
        first call also starts the mix's server and requests every hot
        key once."""
        out = Phase()
        req = make_request(SETUP_SIZES)
        key = req.canonical_key()

        async def bring_up(rep: Phase, records: list) -> float:
            """Returns when the first answer arrived; the second server
            is stopped after that, outside the timed interval."""
            server, clients = await self._serve(
                self.setup_path, schedule_cache.ScheduleCache())
            try:
                await self._op(clients[0], req, key, rep, records, tracer)
                return time.perf_counter()
            finally:
                await self._shut(server, clients, self.setup_path)

        for _ in range(reps):
            rep, records = Phase(), []
            t0 = time.perf_counter()
            dt = self.loop.run_until_complete(bring_up(rep, records)) - t0
            self._check(records, rep)
            out.absorb(rep)
            if rep.latencies:
                out.latencies.append(dt)
                out.frames += [(frame, dt) for frame, _op_dt in rep.frames]

        async def warm(rep: Phase, records: list) -> None:
            self.server, self.clients = await self._serve(
                self.path, schedule_cache.GLOBAL_CACHE)
            for hot_req, hot_key in self.hot:
                await self._op(self.clients[0], hot_req, hot_key, rep,
                               records, None)

        if self.server is None:
            rep, records = Phase(), []
            self.loop.run_until_complete(warm(rep, records))
            self._check(records, rep)
            out.absorb(rep)
        return out

    def phase(self, seconds: float, min_ops: int, tracer: Any) -> Phase:
        out = Phase()
        records: list = []
        if tracer is not None:
            tracer.clear_adopted()

        async def stream(conn: int, deadline: float) -> None:
            client = self.clients[conn]
            requests = self.streams[conn]
            while out.attempted < min_ops or time.perf_counter() < deadline:
                req, key = next(requests)
                await self._op(client, req, key, out, records, tracer)

        async def run() -> None:
            deadline = time.perf_counter() + seconds
            await asyncio.gather(
                *(stream(c, deadline) for c in range(CONNECTIONS))
            )

        t0 = time.perf_counter()
        self.loop.run_until_complete(run())
        out.busy_s = time.perf_counter() - t0
        self._check(records, out)
        return out

    def counts(self) -> dict[str, float]:
        """Rounds and volume summed over the hot keys; the server path
        compiles no batched plans."""
        rounds = volume = 0
        for req, key in self.hot:
            r, v = self._local(req, key)
            rounds += r
            volume += v
        return {
            "schedule.rounds": float(rounds),
            "schedule.volume_bytes": float(volume),
            "plan.kernels": 0.0,
            "plan.index_kernels": 0.0,
            "plan.wire_bytes": 0.0,
        }

    def server_counts(self) -> dict[str, float]:
        stats = self.loop.run_until_complete(self.clients[0].stats())
        server = stats["server"]
        return {
            "serve.builds": float(server["builds"]),
            "serve.ready_hits": float(server["ready_hits"]),
            "serve.single_flight_hits": float(server["single_flight_hits"]),
        }

    def close(self) -> None:
        try:
            self.loop.run_until_complete(self._stop())
        finally:
            self.loop.close()
