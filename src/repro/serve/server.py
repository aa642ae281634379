"""The schedule-compilation daemon.

One asyncio event loop accepts any number of connections; schedule
construction, verifier certification and plan lowering run on a small
thread pool.  Every table the daemon keeps is a
:class:`~repro.core.single_flight.SingleFlight`, the primitive the
schedule and plan caches run on:

* **cross-connection single-flight** — requests are identified by the
  canonical schedule-cache fingerprint
  (:meth:`~repro.serve.protocol.ScheduleRequest.canonical_key`).  The
  first request for a key claims it and runs the build on the pool;
  every concurrent request for the key joins that flight by awaiting
  its future on the event loop, so no pool thread is parked on a join.
  ``N`` identical concurrent requests cost **one** build and ``N-1``
  single-flight joins, and the join count is exported in telemetry.  A
  failed build fails every joined request with the same error.
* **certification before first service** — a freshly built schedule is
  verified (:func:`repro.analyze.schedule_verifier.certify_schedule`)
  inside the cache's single-flight section, so no uncertified schedule
  is ever answered — and no schedule is certified twice.

The served payloads (the schedule's serialized dict) are the entries of
that table, bounded to ``READY_MIRROR_SIZE``: a repeat request is
answered straight off the event loop without touching the pool.  This
mirror can never go stale — the fingerprint *determines* the schedule
content (schedules are pure data), so eviction from the underlying
build cache does not invalidate it.

With ``shm_plans=True`` the daemon also owns a
:class:`~repro.serve.shm_plans.ShmPlanStore`: ``plan`` requests lower
the schedule once per buffer layout — the plan is rank-invariant, so
every rank of the topology shares one image — and publish it into the
store, answering with a ``(segment, offset, nbytes)`` reference that
same-machine clients map zero-copy.  Plan requests run through a second
table of the same kind, keyed by the image digest.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.analyze.schedule_verifier import certify_schedule
from repro.core import plan as plan_mod
from repro.core import schedule_cache
from repro.core.opstats import OpStats
from repro.core.schedule import Schedule
from repro.core.serialize import FrameError, schedule_to_dict
from repro.core.single_flight import SingleFlight
from repro.core.topology import CartTopology
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    ScheduleRequest,
    ServeError,
    encode_message,
    read_message,
)
from repro.serve.shm_plans import ShmPlanStore, key_digest, plan_to_image

#: served-payload mirror entries kept (responses, not schedules); the
#: published-plan mirror keeps as many plan references
READY_MIRROR_SIZE = 1024
#: build-latency samples kept for the p50/p99 telemetry
LATENCY_RESERVOIR = 4096
#: seed of the latency reservoir's replacement choices
LATENCY_SEED = 0x5EED


@dataclass
class ServerStats:
    """Event-loop-owned counters (no locking: single-threaded loop)."""

    connections: int = 0
    requests: dict = field(default_factory=dict)
    #: answered from the served-payload mirror, no pool round trip
    ready_hits: int = 0
    #: joined another connection's in-flight build
    single_flight_hits: int = 0
    builds: int = 0
    build_failures: int = 0
    protocol_errors: int = 0
    plans_published: int = 0
    #: build-latency reservoir (seconds): a uniform sample of every
    #: latency noted so far, at most ``LATENCY_RESERVOIR`` long
    build_latency: list = field(default_factory=list)
    #: latencies noted so far (the reservoir's population)
    latencies_seen: int = 0
    _rng: random.Random = field(
        default_factory=lambda: random.Random(LATENCY_SEED), repr=False
    )

    def count(self, op: str) -> None:
        self.requests[op] = self.requests.get(op, 0) + 1

    def note_latency(self, seconds: float) -> None:
        """Reservoir sampling (Algorithm R): the ``n``-th latency
        replaces a random slot with probability ``size / n``, so the
        reservoir stays a uniform sample of the whole run and the
        percentiles follow the latest builds too."""
        self.latencies_seen += 1
        if len(self.build_latency) < LATENCY_RESERVOIR:
            self.build_latency.append(seconds)
            return
        slot = self._rng.randrange(self.latencies_seen)
        if slot < LATENCY_RESERVOIR:
            self.build_latency[slot] = seconds

    def latency_percentile(self, q: float) -> float:
        if not self.build_latency:
            return 0.0
        ordered = sorted(self.build_latency)
        return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1)))]

    def to_json(self) -> dict:
        return {
            "connections": self.connections,
            "requests": dict(sorted(self.requests.items())),
            "ready_hits": self.ready_hits,
            "single_flight_hits": self.single_flight_hits,
            "builds": self.builds,
            "build_failures": self.build_failures,
            "protocol_errors": self.protocol_errors,
            "plans_published": self.plans_published,
            "build_latency_p50": self.latency_percentile(0.50),
            "build_latency_p99": self.latency_percentile(0.99),
            "build_latency_samples": len(self.build_latency),
        }


class ScheduleServer:
    """The daemon.  ``path`` serves a unix socket, otherwise
    ``host``/``port`` a TCP endpoint (``port=0`` picks a free port,
    exposed as :attr:`address` after :meth:`start`)."""

    def __init__(
        self,
        path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        *,
        workers: int = 4,
        verify: bool = True,
        shm_plans: bool = False,
        cache: Optional[schedule_cache.ScheduleCache] = None,
    ) -> None:
        if path is None and host is None:
            host = "127.0.0.1"
        self.path = path
        self.host = host
        self.port = port
        self.verify = verify
        self.workers = max(1, int(workers))
        self.stats = ServerStats()
        self.opstats = OpStats()
        self._cache = cache if cache is not None else schedule_cache.GLOBAL_CACHE
        self._plan_store: Optional[ShmPlanStore] = (
            ShmPlanStore.create() if shm_plans else None
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None
        #: canonical key -> served schedule dict (see module docstring)
        self._ready = SingleFlight(READY_MIRROR_SIZE)
        #: plan digest -> (offset, nbytes) of the published image
        self._plans = SingleFlight(READY_MIRROR_SIZE)
        #: builds running on the pool, one per flight (stop() cancels)
        self._builds: set = set()
        #: live connection handler tasks and writers (closed by stop())
        self._conn_tasks: set = set()
        self._writers: set = set()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._stopped = asyncio.Event()
        if self.path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.host, port=self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> Any:
        """Where clients connect: the socket path, or ``(host, port)``."""
        return self.path if self.path is not None else (self.host, self.port)

    @property
    def plan_segment(self) -> Optional[str]:
        return self._plan_store.name if self._plan_store is not None else None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        await self._stopped.wait()

    async def stop(self) -> None:
        if self._stopped is None or self._stopped.is_set():
            return
        self._stopped.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # close every connection and fail every flight, so no handler
        # stays parked on a read or a build, then wait the handlers out;
        # a build already running on the pool finishes on its own
        for writer in list(self._writers):
            writer.close()
        for build in list(self._builds):
            build.cancel()
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self._plan_store is not None:
            self._plan_store.close()
            self._plan_store.unlink()
            self._plan_store = None

    # -- connection handling -------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        stop_after = False
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            while not stop_after:
                try:
                    message = await read_message(reader)
                except (FrameError, ProtocolError) as exc:
                    # the stream may be desynchronized: answer, then close
                    self.stats.protocol_errors += 1
                    writer.write(encode_message(_error_payload(exc)))
                    await writer.drain()
                    break
                response = await self._dispatch(message)
                stop_after = (
                    message.get("op") == "shutdown"
                    and response.get("status") == "ok"
                )
                writer.write(encode_message(response))
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # the peer hung up, or stop() closed the connection
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
        if stop_after:
            await self.stop()

    async def _dispatch(self, message: dict) -> dict:
        op = str(message.get("op", ""))
        self.stats.count(op or "?")
        try:
            if op == "ping":
                return {
                    "status": "ok",
                    "protocol": PROTOCOL_VERSION,
                    "pong": True,
                }
            if op == "stats":
                return self._stats_payload()
            if op == "shutdown":
                return {"status": "ok", "bye": True}
            if op == "schedule":
                return await self._resolve_schedule(
                    ScheduleRequest.from_dict(message)
                )
            if op == "plan":
                return await self._resolve_plan(
                    ScheduleRequest.from_dict(message)
                )
            raise ProtocolError(
                f"unknown op {op!r} (ping/schedule/plan/stats/shutdown)"
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            if isinstance(exc, ProtocolError):
                self.stats.protocol_errors += 1
            return _error_payload(exc)

    # -- the schedule pipeline -----------------------------------------
    async def _resolve_schedule(self, request: ScheduleRequest) -> dict:
        key = request.canonical_key()
        payload, flight, owner = self._ready.claim(key)
        if flight is None:
            self.stats.ready_hits += 1
            self.opstats.record_cache(True, backend="serve")
            return self._ok_schedule(payload, hit=True, single_flight=False)
        if owner:
            build = self._launch(
                self._ready, key, self._build_certified, request, key
            )
        else:
            self.stats.single_flight_hits += 1
        payload, _filed = await asyncio.wrap_future(flight)
        if not owner:
            self.opstats.record_cache(True, backend="serve")
            return self._ok_schedule(payload, hit=True, single_flight=True)
        _payload, seconds, hit = build.result()
        if not hit:
            self.stats.builds += 1
            self.stats.note_latency(seconds)
        self.opstats.record_cache(hit, seconds, backend="serve")
        return self._ok_schedule(
            payload, hit=hit, single_flight=False, build_seconds=seconds
        )

    def _launch(
        self, table: SingleFlight, key: Any, work: Callable[..., tuple],
        *args: Any,
    ) -> "asyncio.Future[tuple]":
        """Run ``work(*args)`` on the pool for the owner of ``key``'s
        flight in ``table``.  When it ends, the flight settles with the
        first item of its result or with its error, so the owner and
        every joiner, all awaiting the flight, get the same outcome;
        :meth:`stop` cancels the builds still running, which fails their
        flights."""
        assert self._loop is not None and self._stopped is not None
        try:
            if self._stopped.is_set():  # stop() may be past its cancels
                raise ServeError("server stopped")
            build = self._loop.run_in_executor(self._pool, work, *args)
        except BaseException as exc:
            table.settle(key, error=exc)
            raise
        self._builds.add(build)

        def settle(done: "asyncio.Future[tuple]") -> None:
            self._builds.discard(done)
            if done.cancelled():
                table.settle(key, error=ServeError("server stopped"))
            elif done.exception() is not None:
                self.stats.build_failures += 1
                table.settle(key, error=done.exception())
            else:
                table.settle(key, done.result()[0])

        build.add_done_callback(settle)
        return build

    def _ok_schedule(
        self,
        payload: dict,
        *,
        hit: bool,
        single_flight: bool,
        build_seconds: float = 0.0,
    ) -> dict:
        return {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "schedule": payload,
            "hit": hit,
            "single_flight": single_flight,
            "build_seconds": build_seconds,
            "certified": self.verify,
        }

    def _build_certified(
        self, request: ScheduleRequest, key: tuple
    ) -> tuple[dict, float, bool]:
        """Worker-thread body: build-or-fetch through the schedule cache
        (certification runs inside its single-flight section) and
        serialize the schedule once."""
        sched, hit, seconds = self._cache.get_or_build(
            key, request.build, self._verifier(request)
        )
        assert isinstance(sched, Schedule)
        return schedule_to_dict(sched), seconds, hit

    def _verifier(
        self, request: ScheduleRequest
    ) -> Optional[Callable[[Any], None]]:
        if not self.verify:
            return None
        dims = request.dims
        if dims is None:
            raise ProtocolError(
                "certification requires 'dims' (and optionally 'periods') "
                "in the request; start the server with verify=False to "
                "serve unverified schedules"
            )
        periods = (
            request.periods if request.periods is not None else True
        )

        def check(sched: Any) -> None:
            certify_schedule(sched, dims, periods)

        return check

    # -- plans ---------------------------------------------------------
    async def _resolve_plan(self, request: ScheduleRequest) -> dict:
        if self._plan_store is None:
            raise ServeError(
                "this server has no shared plan store "
                "(start it with shm_plans=True)"
            )
        if request.rank is None or request.sizes is None:
            raise ProtocolError(
                "plan requests need 'rank' and 'sizes' on top of the "
                "schedule layout"
            )
        if request.dims is None:
            raise ProtocolError("plan requests need 'dims'")
        p = math.prod(request.dims)
        if not 0 <= request.rank < p:
            raise ProtocolError(
                f"plan request rank {request.rank} outside [0, {p}) for "
                f"dims {tuple(request.dims)}"
            )
        # the plan is rank-invariant: one image per schedule and layout
        key = request.canonical_key()
        digest = key_digest((key, request.sizes))
        published, flight, owner = self._plans.claim(digest)
        if flight is None:
            return self._ok_plan(digest, *published, plan_hit=True)
        if owner:
            build = self._launch(
                self._plans, digest, self._build_plan, request, key, digest
            )
        else:
            self.stats.single_flight_hits += 1
        published, _filed = await asyncio.wrap_future(flight)
        plan_hit = not owner or build.result()[1]
        if not plan_hit:
            self.stats.plans_published += 1
        return self._ok_plan(digest, *published, plan_hit=plan_hit)

    def _ok_plan(
        self, digest: str, offset: int, nbytes: int, *, plan_hit: bool
    ) -> dict:
        assert self._plan_store is not None
        return {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "shm": {
                "segment": self._plan_store.name,
                "offset": offset,
                "nbytes": nbytes,
                "key": digest,
            },
            "plan_hit": plan_hit,
        }

    def _build_plan(
        self, request: ScheduleRequest, key: tuple, digest: str
    ) -> tuple[tuple[int, int], bool]:
        """Worker-thread body: certified schedule, lowering, publish into
        the shared store (idempotent on the digest).  Returns ``((offset,
        nbytes), plan_hit)``."""
        store = self._plan_store
        if store is None:
            raise ServeError("plan store closed")
        existing = store.locate(digest)
        if existing is not None:
            return existing, True
        sched, _hit, _seconds = self._cache.get_or_build(
            key, request.build, self._verifier(request)
        )
        assert isinstance(sched, Schedule)
        assert request.dims is not None
        topo = CartTopology(request.dims, request.periods)
        sizes = dict(request.sizes or ())
        plan_obj, _plan_hit = plan_mod.get_or_compile_batched(
            sched, topo, sizes=sizes
        )
        return store.put(digest, plan_to_image(plan_obj)), False

    # -- telemetry -----------------------------------------------------
    def _stats_payload(self) -> dict:
        info = self._cache.info()
        payload: dict[str, Any] = {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "server": self.stats.to_json(),
            "cache": info._asdict(),
            "plan_cache": plan_mod.plan_cache_info()._asdict(),
            "opstats": self.opstats.to_json(),
            "ready_mirror": len(self._ready),
            "verify": self.verify,
        }
        if self._plan_store is not None:
            payload["plan_store"] = {
                "segment": self._plan_store.name,
                "capacity": self._plan_store.capacity,
                "used": self._plan_store.used,
                "entries": len(self._plan_store),
            }
        # the payload must survive the framed JSON wire format
        json.dumps(payload)
        return payload


def _error_payload(exc: BaseException) -> dict:
    return {
        "status": "error",
        "protocol": PROTOCOL_VERSION,
        "etype": type(exc).__name__,
        "error": str(exc),
    }
