"""Schedule-service benchmarks: cache concurrency and daemon load.

Three cases are measured and persisted (``benchmarks/out/serve.txt`` /
``serve.json``; with ``REPRO_PERF_GATE=1`` the JSON is compared against
the committed baseline ``benchmarks/BENCH_serve.json``):

* **cache concurrency, stand-in builds** (gated) — eight threads driving
  concurrent *misses* (distinct keys, GIL-releasing 2 ms ``sleep``
  builds: the regime of many rank threads warming one cold cache)
  through the single-flight
  :class:`~repro.core.schedule_cache.ScheduleCache` versus a reference
  design holding one global mutex across every build.  Bar: **>= 2x**.
  The whole speedup comes from building outside the lock.  The case
  keeps its historical name ``sharded-cache`` (and field ``sharded_s``)
  so the gate still finds its baseline entry; the cache is no longer
  sharded.
* **cache concurrency, real builds** (reported, not gated) — the same
  driver with real
  :func:`~repro.core.alltoall_schedule.build_alltoall_schedule` builds
  on distinct keys.  They mostly hold the interpreter lock, so
  this number shows what building outside the lock buys on the real
  code path, next to the stand-in's.
* **daemon load** — one :class:`~repro.serve.server.ScheduleServer`
  answering a mixed stencil+reduction workload from >= 1000 concurrent
  connections (``BENCH_SMOKE`` reduces the count).  All clients connect
  first, then fire simultaneously; client-side latency p50/p99 and
  throughput go into the perf trajectory.  The run also certifies the
  dedup story end to end: thousands of requests over a few dozen
  distinct fingerprints must cost at most one build per fingerprint.

``BENCH_SMOKE=1`` (the CI setting) reduces repetition and client
counts; the assertions and the gate are identical.
"""

import asyncio
import json
import os
import threading
import time

from benchmarks.conftest import write_artifact, write_json_artifact
from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.schedule import uniform_block_layout
from repro.core.schedule_cache import ScheduleCache
from repro.core.stencils import moore_neighborhood
from repro.serve.protocol import encode_message, read_message
from repro.serve.server import ScheduleServer

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))

THREADS = 8
KEYS_PER_THREAD = 4 if SMOKE else 12
#: stand-in build cost; sleeps release the GIL the way the real numpy
#: and routing work of a schedule build does on a multicore box
BUILD_S = 0.002
CACHE_ROUNDS = 3 if SMOKE else 5

CLIENTS = 300 if SMOKE else 1000
#: connection-establishment wave size (keeps under the listen backlog)
CONNECT_WAVE = 64

BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_serve.json")
#: speedup gate: fail below baseline/GATE_TOLERANCE
GATE_TOLERANCE = 1.5
#: load gate: throughput floor and p99 ceiling factors vs the baseline
#: (absolute numbers vary with the host far more than ratios do)
LOAD_TOLERANCE = 4.0


class _Built:
    """What the stand-in build returns (the cache only needs an object
    that may expose ``clear_plans``)."""

    def clear_plans(self):
        pass


class SingleLockCache:
    """The reference design: one global mutex held across the build, so
    concurrent misses serialize behind each other."""

    def __init__(self, maxsize=4096):
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._data = {}

    def get_or_build(self, key, build):
        with self._lock:
            got = self._data.get(key)
            if got is not None:
                return got, True, 0.0
            t0 = time.perf_counter()
            sched = build()
            seconds = time.perf_counter() - t0
            self._data[key] = sched
            return sched, False, seconds


def _sleep_build(t, k):
    time.sleep(BUILD_S)
    return _Built()


#: the real-build case: 3-D Moore combining alltoall, a distinct block
#: size per key so every key is a fresh build; prepared here so both
#: caches do the same work (the schedule cache prepares what it files)
REAL_NBH = moore_neighborhood(3, 1, include_self=False)


def _real_build(t, k):
    sizes = [8 * (1 + t * KEYS_PER_THREAD + k)] * REAL_NBH.t
    return build_alltoall_schedule(
        REAL_NBH,
        list(uniform_block_layout(sizes, "send")),
        list(uniform_block_layout(sizes, "recv")),
    ).prepare()


def _drive_misses(cache, tag, build=_sleep_build):
    """8 threads, each building its own distinct key set; returns the
    wall time from barrier release to last thread done."""
    barrier = threading.Barrier(THREADS)
    done = []

    def worker(t):
        barrier.wait()
        for k in range(KEYS_PER_THREAD):
            cache.get_or_build((tag, t, k), lambda: build(t, k))

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(THREADS)
    ]
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    done.append(time.perf_counter() - t0)
    return done[0]


def _race(build, rounds):
    """Best-of-``rounds`` wall times: lock-across-build vs the cache."""
    best_single = best_cache = float("inf")
    for round_no in range(rounds):
        best_single = min(
            best_single,
            _drive_misses(SingleLockCache(), ("single", round_no), build),
        )
        best_cache = min(
            best_cache,
            _drive_misses(
                ScheduleCache(maxsize=4096), ("cache", round_no), build
            ),
        )
    return best_single, best_cache


def test_cache_concurrent_miss_speedup():
    """Acceptance: the single-flight cache is >= 2x faster than the
    lock-across-build reference under 8 threads of concurrent misses
    with GIL-releasing stand-in builds."""
    best_single, best_cache = _race(_sleep_build, CACHE_ROUNDS)
    speedup = best_single / best_cache
    ideal = THREADS * KEYS_PER_THREAD * BUILD_S
    text = (
        "single-flight cache vs lock-across-build reference\n"
        f"{THREADS} threads x {KEYS_PER_THREAD} distinct keys, "
        f"{BUILD_S * 1e3:.1f} ms GIL-releasing stand-in builds, "
        f"best of {CACHE_ROUNDS}\n\n"
        f"  single lock : {best_single * 1e3:8.1f} ms "
        f"(serialized floor {ideal * 1e3:.1f} ms)\n"
        f"  cache       : {best_cache * 1e3:8.1f} ms\n"
        f"  speedup     : {speedup:8.1f}x (bar: 2.0x)"
    )
    print("\n" + text)
    _persist_case(
        "cache",
        text,
        {
            "case": "sharded-cache",
            "threads": THREADS,
            "keys_per_thread": KEYS_PER_THREAD,
            "build_s": BUILD_S,
            "single_lock_s": best_single,
            "sharded_s": best_cache,
            "speedup": speedup,
        },
    )
    assert speedup >= 2.0, text


def test_cache_concurrent_miss_real_builds():
    """The same race with real schedule builds; reported, not gated
    (no baseline entry): real builds mostly hold the interpreter lock,
    so building outside the cache's lock overlaps little of them."""
    best_single, best_cache = _race(_real_build, CACHE_ROUNDS)
    speedup = best_single / best_cache
    text = (
        "single-flight cache vs lock-across-build, real builds\n"
        f"{THREADS} threads x {KEYS_PER_THREAD} distinct keys, "
        f"build_alltoall_schedule (3-D Moore, t={REAL_NBH.t}), "
        f"best of {CACHE_ROUNDS}\n\n"
        f"  single lock : {best_single * 1e3:8.1f} ms\n"
        f"  cache       : {best_cache * 1e3:8.1f} ms\n"
        f"  speedup     : {speedup:8.2f}x (reported, not gated)"
    )
    print("\n" + text)
    _persist_case(
        "cache-real",
        text,
        {
            "case": "real-build-cache",
            "threads": THREADS,
            "keys_per_thread": KEYS_PER_THREAD,
            "single_lock_s": best_single,
            "cache_s": best_cache,
            "speedup": speedup,
        },
    )


def _workload_mix():
    """A few dozen distinct fingerprints: stencil alltoalls over several
    torus shapes and algorithms plus reductions over ops/dtypes."""
    mix = []
    offsets = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    for dims in [(3, 3), (4, 4), (9, 1), (6, 6)]:
        for algorithm in ("combining", "trivial", "direct"):
            mix.append(
                {
                    "op": "schedule",
                    "kind": "alltoall",
                    "algorithm": algorithm,
                    "offsets": offsets,
                    "dims": list(dims),
                    "periods": [True, True],
                    "send": [[["send", 8 * i, 8]] for i in range(4)],
                    "recv": [[["recv", 8 * i, 8]] for i in range(4)],
                }
            )
    for reduce_op in ("sum", "max"):
        for dtype in ("float64", "int32"):
            for m_bytes in (8, 32):
                mix.append(
                    {
                        "op": "schedule",
                        "kind": "reduce",
                        "algorithm": "combining",
                        "offsets": offsets,
                        "dims": [3, 3],
                        "periods": [True, True],
                        "m_bytes": m_bytes,
                        "dtype": dtype,
                        "reduce_op": reduce_op,
                    }
                )
    return mix


async def _load_run(path):
    server = ScheduleServer(path, cache=ScheduleCache(maxsize=4096))
    await server.start()
    mix = _workload_mix()
    try:
        # phase 1: establish every connection (waves stay under the
        # listen backlog); all CLIENTS are concurrently open before any
        # request fires
        conns = []
        for start in range(0, CLIENTS, CONNECT_WAVE):
            wave = await asyncio.gather(
                *(
                    asyncio.open_unix_connection(path)
                    for _ in range(
                        min(CONNECT_WAVE, CLIENTS - start)
                    )
                )
            )
            conns.extend(wave)

        async def one(i):
            reader, writer = conns[i]
            message = mix[i % len(mix)]
            t0 = time.perf_counter()
            writer.write(encode_message(message))
            await writer.drain()
            response = await read_message(reader)
            latency = time.perf_counter() - t0
            writer.close()
            return latency, response

        t0 = time.perf_counter()
        outcomes = await asyncio.gather(*(one(i) for i in range(CLIENTS)))
        wall = time.perf_counter() - t0
        for _, response in outcomes:
            assert response["status"] == "ok", response
            assert response["certified"] is True
        latencies = sorted(lat for lat, _ in outcomes)
        stats = server.stats
        assert stats.builds <= len(mix), (
            f"dedup failed: {stats.builds} builds for {len(mix)} "
            "distinct fingerprints"
        )
        return {
            "clients": CLIENTS,
            "distinct_requests": len(mix),
            "wall_s": wall,
            "throughput_rps": CLIENTS / wall,
            "latency_p50_s": latencies[len(latencies) // 2],
            "latency_p99_s": latencies[int(0.99 * (len(latencies) - 1))],
            "builds": stats.builds,
            "single_flight_hits": stats.single_flight_hits,
            "ready_hits": stats.ready_hits,
        }
    finally:
        await server.stop()


def test_daemon_sustains_concurrent_clients(tmp_path):
    load = asyncio.run(_load_run(str(tmp_path / "bench.sock")))
    text = (
        f"schedule daemon under {load['clients']} concurrent clients "
        f"({load['distinct_requests']} distinct fingerprints, "
        "mixed stencil+reduction, all certified)\n\n"
        f"  wall               : {load['wall_s'] * 1e3:9.1f} ms\n"
        f"  throughput         : {load['throughput_rps']:9.1f} req/s\n"
        f"  latency p50        : {load['latency_p50_s'] * 1e3:9.1f} ms\n"
        f"  latency p99        : {load['latency_p99_s'] * 1e3:9.1f} ms\n"
        f"  builds             : {load['builds']:9d}\n"
        f"  single-flight hits : {load['single_flight_hits']:9d}\n"
        f"  ready-mirror hits  : {load['ready_hits']:9d}"
    )
    print("\n" + text)
    _persist_case("load", text, None, load=load)
    # every fingerprint cost at most one build; the rest were joins
    assert load["builds"] <= load["distinct_requests"]
    assert (
        load["builds"]
        + load["single_flight_hits"]
        + load["ready_hits"]
        >= load["clients"]
    )


# ---------------------------------------------------------------------
# persistence + gate: both tests append into one serve.txt/serve.json
_PAYLOAD = {
    "benchmark": "serve",
    "smoke": SMOKE,
    "cores": os.cpu_count(),
    "cases": [],
    "load": None,
}
_TEXTS = []


def _persist_case(section, text, case, load=None):
    _TEXTS.append(text)
    if case is not None:
        _PAYLOAD["cases"].append(case)
    if load is not None:
        _PAYLOAD["load"] = load
    write_artifact("serve.txt", "\n\n".join(_TEXTS))
    write_json_artifact("serve.json", _PAYLOAD)


def test_perf_gate_against_baseline():
    """Runs last: compares this run's trajectory with the committed
    baseline when REPRO_PERF_GATE=1."""
    lines = _apply_gate(_PAYLOAD)
    text = "\n".join(lines)
    print("\n" + text)
    prev = "\n\n".join(_TEXTS)
    write_artifact("serve.txt", (prev + "\n\n" if prev else "") + text)


def _apply_gate(payload):
    if os.environ.get("REPRO_PERF_GATE", "0") != "1":
        return ["perf gate: off (set REPRO_PERF_GATE=1 to enable)"]
    if not os.path.exists(BASELINE):
        return [f"perf gate: no baseline at {BASELINE}, skipped"]
    with open(BASELINE) as fh:
        base = json.load(fh)
    lines = [f"perf gate: vs {BASELINE}"]
    failures = []
    base_cases = {c["case"]: c for c in base.get("cases", [])}
    for case in payload["cases"]:
        ref = base_cases.get(case["case"])
        if ref is None:
            lines.append(f"  {case['case']}: no baseline entry, skipped")
            continue
        floor = ref["speedup"] / GATE_TOLERANCE
        verdict = "ok" if case["speedup"] >= floor else "REGRESSED"
        lines.append(
            f"  {case['case']}: speedup {case['speedup']:.2f}x vs baseline "
            f"{ref['speedup']:.2f}x (floor {floor:.2f}x) {verdict}"
        )
        if case["speedup"] < floor:
            failures.append(case["case"])
    ref_load, load = base.get("load"), payload.get("load")
    if ref_load and load:
        floor_rps = ref_load["throughput_rps"] / LOAD_TOLERANCE
        ceil_p99 = ref_load["latency_p99_s"] * LOAD_TOLERANCE
        rps_ok = load["throughput_rps"] >= floor_rps
        p99_ok = load["latency_p99_s"] <= ceil_p99
        lines.append(
            f"  load: {load['throughput_rps']:.0f} req/s "
            f"(floor {floor_rps:.0f}) "
            f"{'ok' if rps_ok else 'REGRESSED'}; "
            f"p99 {load['latency_p99_s'] * 1e3:.1f} ms "
            f"(ceiling {ceil_p99 * 1e3:.1f} ms) "
            f"{'ok' if p99_ok else 'REGRESSED'}"
        )
        if not rps_ok:
            failures.append("load-throughput")
        if not p99_ok:
            failures.append("load-p99")
    assert not failures, "\n".join(lines)
    return lines
