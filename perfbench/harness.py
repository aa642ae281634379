"""Timing, statistics and metric assembly shared by every workload.

A workload is driven through the :class:`Runner` interface: ``setup``
(cold bring-ups from cleared caches, each timed to its first completed
op), ``phase`` (closed-loop timed ops, each checked by the oracle
outside its timed interval), ``counts`` (exact structural counts) and
``close``.  :class:`SyncRunner` adapts the single-stream workloads;
the schedule-server mix implements the interface itself.

End-to-end metrics come from an untraced run:

* ``latency_p50_s`` / ``latency_p90_s``: median and 90th percentile of
  the op wall times of the timed phase (at least ``MIN_OPS`` samples);
* ``throughput_ops_s``: ops completed per busy second (closed loop);
* ``setup_s``: median over ``setup_reps`` cold bring-ups of the time
  from cleared schedule (and so plan) caches to the first completed op;
  the timed phase is cut into ``SEGMENTS`` segments and each starts
  with an equal share of the bring-ups, so they sample the whole run
  and not only its first seconds;
* ``peak_rss_mb``: ``ru_maxrss`` of the process.

``fail_frac`` (failed / attempted ops, set-up included) is printed with
them; it is 0 on a clean run, and the result's ``correct`` is false
otherwise.

The traced run alternates untraced and traced blocks of ops and
reports the per-layer split (:func:`layer_metrics`):

* ``<layer>_s``: mean self time per traced op (``backend.execute_s``
  is the whole ``execute_all`` span, ``backend.copy_io_s`` its self
  time: buffer copy-in/out); ``setup.<layer>_s`` the same per cold
  bring-up, for the layers in ``SETUP_LAYERS``;
* ``schedule_cache.hit_ratio``: cache hits / lookups of the traced ops;
  ``plan.compiles``: batched-plan compilations during the traced ops;
* ``schedule.*`` and ``plan.*`` counts: exact counts of the schedules
  and compiled batched plans the workload runs (see
  ``workloads.plan_counts``);
* ``pool.*``: buffer-pool acquires per traced op, their reuse ratio,
  and the pool's high-water mark;
* ``serve.*`` counts: server counters over the traced ops;
* ``floor.memcpy_s``: one ``np.copyto`` of the bytes every rank
  receives in one op; ``floor.ratio``: untraced ``latency_p50_s`` over
  it (halo workloads only, else 0);
* ``trace.overhead``: traced over untraced median op time, minus 1
  (untraced and traced blocks of about ``TRACE_BLOCK_S`` alternate, so
  both see the same machine); ``trace.coverage``: the share of traced
  op time inside named layers; ``trace.layer_sum_s``: the sum of the
  per-layer self times of the mean traced op, to set beside
  ``latency_p50_s``.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Protocol

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ops a timed phase completes at least, so that at least ten samples
#: lie beyond the reported 90th percentile
MIN_OPS = 100
#: untimed ops after set-up, before a warm workload is timed
WARM_OPS = 2
#: segments of an untraced run's timed phase, each opened by bring-ups:
#: a bring-up is interpreter-bound (it certifies), and interpreter speed
#: on a shared host drifts over seconds
SEGMENTS = 5
#: ops the untraced and the traced side of a traced run complete at least
TRACE_MIN_OPS = 20
#: seconds per untraced or traced block of a traced run
TRACE_BLOCK_S = 1.0

#: (metric, unit) printed by an untraced run, in order
END_TO_END = (
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (metric, span layer, "self" or "total"): mean seconds per op
TIME_LAYERS = (
    ("schedule.build_s", "schedule.build", "self"),
    ("schedule_cache.lookup_s", "schedule_cache.lookup", "self"),
    ("analyze.certify_s", "analyze.certify", "self"),
    ("plan.lookup_s", "plan.lookup", "self"),
    ("plan.compile_s", "plan.compile", "self"),
    ("plan.round_loop_s", "plan.execute", "self"),
    ("plan.pack_s", "plan.pack", "self"),
    ("plan.unpack_s", "plan.unpack", "self"),
    ("plan.combine_s", "plan.combine", "self"),
    ("plan.local_copy_s", "plan.local_copy", "self"),
    ("backend.execute_s", "backend.execute", "total"),
    ("backend.copy_io_s", "backend.execute", "self"),
    ("serve.rpc_s", "serve.rpc", "self"),
    ("serve.decode_s", "serve.decode", "self"),
)

#: the layers that do the work of a cold bring-up, reported per set-up
SETUP_LAYERS = (
    "schedule.build_s",
    "schedule_cache.lookup_s",
    "analyze.certify_s",
    "plan.compile_s",
)

SERVE_COUNTS = ("serve.builds", "serve.ready_hits", "serve.single_flight_hits")

#: (metric, unit) printed by a traced run, in order
PER_LAYER = (
    tuple((name, "s") for name, _layer, _part in TIME_LAYERS)
    + (
        ("schedule_cache.hit_ratio", "ratio"),
        ("plan.compiles", "count"),
        ("schedule.rounds", "count"),
        ("schedule.volume_bytes", "B"),
        ("plan.kernels", "count"),
        ("plan.index_kernels", "count"),
        ("plan.wire_bytes", "B"),
        ("pool.acquires", "count"),
        ("pool.reuse_ratio", "ratio"),
        ("pool.high_water_bytes", "B"),
    )
    + tuple((name, "count") for name in SERVE_COUNTS)
    + (
        ("floor.memcpy_s", "s"),
        ("floor.ratio", "ratio"),
        ("trace.ops", "count"),
        ("trace.latency_p50_s", "s"),
        ("trace.overhead", "ratio"),
        ("trace.coverage", "ratio"),
        ("trace.layer_sum_s", "s"),
    )
    + tuple(("setup." + name, "s") for name in SETUP_LAYERS)
)


def require_src() -> None:
    """Put the checkout's ``src`` first on the import path; fail when
    the library sources are not there (nothing to measure)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: library sources not found under {SRC}; run from "
            f"a checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------
@dataclass
class Phase:
    """The outcome of one timed phase (or of the set-up repetitions)."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: seconds the system was busy with ops: the sum of op intervals
    #: for one stream, the phase's wall time for concurrent streams
    busy_s: float = 0.0
    #: one span frame per op (traced phases only)
    frames: list[Any] = field(default_factory=list)

    def absorb(self, other: "Phase") -> None:
        """Count ``other``'s ops (set-up side work, not samples)."""
        self.attempted += other.attempted
        self.failed += other.failed

    def extend(self, other: "Phase") -> None:
        """Append ``other``'s samples and ops to this phase."""
        self.absorb(other)
        self.latencies += other.latencies
        self.busy_s += other.busy_s
        self.frames += other.frames


class Runner(Protocol):
    name: str
    #: bytes a memcpy floor copies (0: no floor for this workload)
    floor_bytes: int
    #: cold bring-ups per run, a multiple of ``SEGMENTS``; ``setup_s``
    #: is their median
    setup_reps: int

    def setup(self, reps: int, tracer: Any) -> Phase: ...

    def phase(self, seconds: float, min_ops: int, tracer: Any) -> Phase: ...

    def counts(self) -> dict[str, float]: ...

    def server_counts(self) -> dict[str, float]: ...

    def close(self) -> None: ...


class SyncWorkload(Protocol):
    """A single-stream workload: ops run one after the other."""

    #: ops per cycle; a phase ends on a cycle boundary
    cycle: int
    floor_bytes: int
    setup_reps: int

    def reset(self) -> None: ...

    def prepare(self, op_index: int, poison: int) -> None: ...

    def prepare_setup(self, rep: int, poison: int) -> None: ...

    def op(self) -> None: ...

    def check(self) -> bool: ...

    def corrupt(self) -> None: ...

    def counts(self) -> dict[str, float]: ...


class SyncRunner:
    """Drives a :class:`SyncWorkload` from one generator thread."""

    def __init__(self, name: str, workload: SyncWorkload,
                 seed: int) -> None:
        self.name = name
        self.workload = workload
        self.floor_bytes = workload.floor_bytes
        self.setup_reps = workload.setup_reps
        #: the self-test sets this to damage every output before its check
        self.corrupt = False
        self._rng = np.random.default_rng([seed, 1])
        self._index = 0

    def _one(self, prepare: Any, out: Phase, tracer: Any) -> Optional[float]:
        """Prepare, time and check one op; ``None`` if it raised."""
        prepare(self._index, int(self._rng.integers(0, 256)))
        self._index += 1
        out.attempted += 1
        frame = token = None
        if tracer is not None:
            frame, token = tracer.begin()
        t0 = time.perf_counter()
        try:
            self.workload.op()
        except Exception as exc:  # an op that raises is a failed op
            print(f"# {self.name}: op raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            out.failed += 1
            return None
        finally:
            dt = time.perf_counter() - t0
            if token is not None:
                tracer.end(token)
        if self.corrupt:
            self.workload.corrupt()
        if not self.workload.check():
            out.failed += 1
        if frame is not None:
            out.frames.append((frame, dt))
        return dt

    def setup(self, reps: int, tracer: Any) -> Phase:
        out = Phase()
        for rep in range(reps):
            self.workload.reset()
            dt = self._one(
                lambda i, poison: self.workload.prepare_setup(rep, poison),
                out, tracer,
            )
            if dt is not None:
                out.latencies.append(dt)
        if self.workload.cycle == 1:
            # a warm workload: let lazy state settle before timing, and
            # collect the set-up's garbage so no timed op pays for it
            out.absorb(self.phase(0.0, WARM_OPS, None))
            gc.collect()
        return out

    def phase(self, seconds: float, min_ops: int, tracer: Any) -> Phase:
        out = Phase()
        cycle = self.workload.cycle
        deadline = time.perf_counter() + seconds
        n = 0
        while not (n % cycle == 0 and n >= min_ops
                   and time.perf_counter() >= deadline):
            dt = self._one(self.workload.prepare, out, tracer)
            n += 1
            if dt is not None:
                out.latencies.append(dt)
                out.busy_s += dt
        return out

    def counts(self) -> dict[str, float]:
        return self.workload.counts()

    def server_counts(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def memcpy_floor(nbytes: int, reps: int = 50) -> float:
    """Median seconds of one ``np.copyto`` of ``nbytes`` bytes."""
    src = np.random.default_rng(0).integers(0, 256, nbytes, dtype=np.uint8)
    dst = np.empty_like(src)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict[str, Any]:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def end_to_end_metrics(setup: Phase, timed: Phase) -> dict[str, float]:
    lat = timed.latencies
    return {
        "latency_p50_s": quantile(lat, 0.5),
        "latency_p90_s": quantile(lat, 0.9),
        "throughput_ops_s": len(lat) / timed.busy_s,
        "setup_s": statistics.median(setup.latencies),
        "peak_rss_mb": peak_rss_mb(),
    }


def _mean_layer(frames: list, layer: str, part: str) -> float:
    if not frames:
        return 0.0
    total = 0.0
    for frame, _dt in frames:
        values = frame.self_s if part == "self" else frame.total_s
        total += values.get(layer, 0.0)
    return total / len(frames)


def layer_metrics(setup: Phase, plain: Phase, traced: Phase,
                  runner: Runner, pool: PoolTally,
                  server_delta: dict[str, float]) -> dict[str, float]:
    """The per-layer split of a traced run (see ``PER_LAYER``)."""
    frames = traced.frames
    out: dict[str, float] = {}
    for name, layer, part in TIME_LAYERS:
        out[name] = _mean_layer(frames, layer, part)
    lookups = sum(f.calls.get("schedule_cache.lookup", 0) for f, _ in frames)
    hits = sum(f.hits for f, _ in frames)
    out["schedule_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["plan.compiles"] = float(
        sum(f.calls.get("plan.compile", 0) for f, _ in frames)
    )
    out.update(runner.counts())
    out.update(pool.metrics(len(frames)))
    for name in SERVE_COUNTS:
        out[name] = float(server_delta.get(name, 0))
    plain_p50 = quantile(plain.latencies, 0.5)
    traced_p50 = quantile(traced.latencies, 0.5)
    if runner.floor_bytes:
        floor = memcpy_floor(runner.floor_bytes)
        out["floor.memcpy_s"] = floor
        out["floor.ratio"] = plain_p50 / floor
    else:
        out["floor.memcpy_s"] = 0.0
        out["floor.ratio"] = 0.0
    out["trace.ops"] = float(len(frames))
    out["trace.latency_p50_s"] = traced_p50
    out["trace.overhead"] = traced_p50 / plain_p50 - 1.0
    wall = sum(dt for _f, dt in frames)
    self_sum = sum(f.self_sum() for f, _dt in frames)
    out["trace.coverage"] = self_sum / wall if wall else 0.0
    out["trace.layer_sum_s"] = self_sum / len(frames) if frames else 0.0
    for name, layer, part in TIME_LAYERS:
        if name in SETUP_LAYERS:
            out["setup." + name] = _mean_layer(setup.frames, layer, part)
    return {name: float(out[name]) for name, _unit in PER_LAYER}


def pool_stats() -> Any:
    from repro.core.plan import GLOBAL_POOL

    return GLOBAL_POOL.stats()


class PoolTally:
    """Buffer-pool counters summed over the traced blocks of a run."""

    def __init__(self) -> None:
        self.acquires = 0
        self.reuses = 0
        self.high_water = 0

    def add(self, before: Any, after: Any) -> None:
        self.acquires += after.acquires - before.acquires
        self.reuses += after.reuses - before.reuses
        self.high_water = after.high_water_bytes

    def metrics(self, ops: int) -> dict[str, float]:
        return {
            "pool.acquires": self.acquires / ops if ops else 0.0,
            "pool.reuse_ratio": (
                self.reuses / self.acquires if self.acquires else 0.0
            ),
            "pool.high_water_bytes": float(self.high_water),
        }
