"""Compiled execution plans vs. the interpreted schedule path.

The plan compiler (:mod:`repro.core.plan`) targets exactly the workload
Prop. 3.1 makes common: one cached schedule executed many times
(persistent collectives, the paper's 31-run measurement loops).  This
benchmark times repeated executions of a cached combining alltoall on a
3D torus in both modes — the compiled plan's kernels on the lockstep
backend versus the reference walk of the schedule's block sets
(:func:`~repro.core.backend.reference.run_reference`) — for

* a **regular** contiguous layout (where lowering degrades to single
  slice copies and mostly removes per-round Python), and
* a **fragmented alltoallw** layout (4-byte pieces interleaved with
  gaps, so nothing coalesces) where the vectorized gather/scatter index
  kernels replace hundreds of per-run Python copies.

Acceptance: the compiled path is at least **3x** faster on the
fragmented w case, and the threaded, lockstep and shm backends produce
the reference walk's buffers byte for byte.

A second test times the **batched** backend — the whole mesh as one
data-parallel numpy program — against the reference walk on a (8, 8, 8)
torus combining alltoallw (512 ranks).  Its bar is
**10x**, and its ``batched-w`` case rides the same perf gate.

Results are persisted twice: a human-readable table
(``benchmarks/out/plan.txt``) and a machine-readable perf trajectory
(``benchmarks/out/plan.json``).  With ``REPRO_PERF_GATE=1`` the JSON is
additionally compared against the committed baseline
(``benchmarks/BENCH_plan.json``): the gate fails when the compiled
path's speedup falls more than ``GATE_TOLERANCE``x below the baseline's
— a perf regression in the plan path cannot land silently.

``BENCH_SMOKE=1`` (the CI setting) reduces repetitions and fragment
counts; assertions and the gate are identical.
"""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import write_artifact, write_json_artifact
from repro.core import plan as plan_mod
from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.backend import get_backend
from repro.core.backend.reference import run_reference
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import BlockRef, BlockSet

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
REPS = 5 if SMOKE else 20
#: 4-byte fragments per neighbor block in the w layout
PIECES = 16 if SMOKE else 48
FRAG = 4

DIMS = (3, 3, 3)
#: torus for the batched-backend case: large enough that per-rank Python
#: dominates the interpreted path (the regime the backend exists for)
BATCHED_DIMS = (8, 8, 8)
#: fragments per neighbor block for the batched case (smaller than
#: PIECES: the interpreted reference at p=512 is the slow side here)
BATCHED_PIECES = 8 if SMOKE else 16
BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_plan.json")
#: gate: fail when a case's speedup drops below baseline/GATE_TOLERANCE
GATE_TOLERANCE = 1.5

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _best_of(fn, reps):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _fragmented_layout(t, buffer, pieces=None):
    """Per-neighbor block sets of ``pieces`` 4-byte fragments, each
    fragment followed by a FRAG-byte gap so no two ever coalesce."""
    if pieces is None:
        pieces = PIECES
    region = pieces * 2 * FRAG
    sets = [
        BlockSet(
            [
                BlockRef(buffer, i * region + j * 2 * FRAG, FRAG)
                for j in range(pieces)
            ]
        )
        for i in range(t)
    ]
    return sets, t * region


def _regular_layout(t, buffer, m=256):
    return uniform_block_layout([m] * t, buffer), t * m


def _make_bufs(p, send_total, recv_total):
    bufs = []
    for r in range(p):
        rng = np.random.default_rng(9000 + r)
        bufs.append(
            {
                "send": rng.integers(0, 256, send_total).astype(np.uint8),
                "recv": np.zeros(recv_total, np.uint8),
            }
        )
    return bufs


def _cases():
    nbh = moore_neighborhood(3, 1, include_self=False)
    regular_send, s_total = _regular_layout(nbh.t, "send")
    regular_recv, r_total = _regular_layout(nbh.t, "recv")
    frag_send, fs_total = _fragmented_layout(nbh.t, "send")
    frag_recv, fr_total = _fragmented_layout(nbh.t, "recv")
    return nbh, [
        ("regular", regular_send, regular_recv, s_total, r_total),
        ("fragmented-w", frag_send, frag_recv, fs_total, fr_total),
    ]


def _time_case(topo, sched, send_total, recv_total):
    """Best-of wall time per execution, compiled and interpreted: the
    lockstep backend running the plan against the reference walk of the
    block sets (the same lockstep driver and exchange on both sides, so
    the delta is the pack/unpack and peer-resolution path)."""
    backend = get_backend("lockstep")
    bufs = _make_bufs(topo.size, send_total, recv_total)

    def compiled():
        backend.execute_all(topo, sched, bufs)

    def interpreted():
        run_reference(topo, sched, bufs)

    compiled()  # warm the plan cache once, like a real caller
    compiled_s = _best_of(compiled, REPS)
    interpreted()
    interpreted_s = _best_of(interpreted, REPS)
    return compiled_s, interpreted_s


def _certify_backends(topo, sched, send_total, recv_total):
    """Every backend's recv buffers are byte-identical to the reference
    walk's."""
    bufs = _make_bufs(topo.size, send_total, recv_total)
    run_reference(topo, sched, bufs)
    reference = [b["recv"].copy() for b in bufs]
    certified = ["reference"]
    for backend_name in ("threaded", "lockstep", "shm"):
        if backend_name == "shm" and not HAVE_FORK:
            continue
        bufs = _make_bufs(topo.size, send_total, recv_total)
        get_backend(backend_name).execute_all(topo, sched, bufs)
        for r in range(topo.size):
            assert np.array_equal(reference[r], bufs[r]["recv"]), (
                f"divergence at rank {r}: {backend_name} vs reference"
            )
        certified.append(f"{backend_name}/compiled")
    return certified


def _apply_gate(payload):
    """Compare this run's speedups against the committed baseline."""
    if os.environ.get("REPRO_PERF_GATE", "0") != "1":
        return ["perf gate: off (set REPRO_PERF_GATE=1 to enable)"]
    if not os.path.exists(BASELINE):
        return [f"perf gate: no baseline at {BASELINE}, skipped"]
    with open(BASELINE) as fh:
        base = json.load(fh)
    base_cases = {c["case"]: c for c in base.get("cases", [])}
    lines = [f"perf gate: tolerance {GATE_TOLERANCE}x vs {BASELINE}"]
    failures = []
    for case in payload["cases"]:
        ref = base_cases.get(case["case"])
        if ref is None:
            lines.append(f"  {case['case']}: no baseline entry, skipped")
            continue
        floor = ref["speedup"] / GATE_TOLERANCE
        verdict = "ok" if case["speedup"] >= floor else "REGRESSED"
        lines.append(
            f"  {case['case']}: speedup {case['speedup']:.2f}x vs "
            f"baseline {ref['speedup']:.2f}x (floor {floor:.2f}x) "
            f"{verdict}"
        )
        if case["speedup"] < floor:
            failures.append(case["case"])
    assert not failures, "\n".join(lines)
    return lines


def test_plan_speedup_and_parity():
    nbh, cases = _cases()
    topo = CartTopology(DIMS)
    plan_mod.plan_cache_reset()
    plan_mod.GLOBAL_POOL.clear()

    lines = [
        "compiled execution plans vs interpreted schedule path",
        f"combining alltoall, {DIMS} torus, Moore t={nbh.t}, "
        f"best of {REPS}, lockstep executor, smoke={SMOKE}",
        "",
        f"{'case':>14s} {'interpreted (ms)':>17s} {'compiled (ms)':>14s} "
        f"{'speedup':>8s}",
    ]
    payload = {
        "benchmark": "plan",
        "dims": list(DIMS),
        "stencil": "moore-3d",
        "t": nbh.t,
        "reps": REPS,
        "pieces": PIECES,
        "smoke": SMOKE,
        "cores": os.cpu_count(),
        "cases": [],
    }
    speedups = {}
    for case, send_layout, recv_layout, s_total, r_total in cases:
        sched = build_alltoall_schedule(
            nbh, send_layout, recv_layout
        ).prepare()
        compiled_s, interpreted_s = _time_case(topo, sched, s_total, r_total)
        speedup = interpreted_s / compiled_s
        speedups[case] = speedup
        certified = _certify_backends(topo, sched, s_total, r_total)
        lines.append(
            f"{case:>14s} {interpreted_s * 1e3:17.3f} "
            f"{compiled_s * 1e3:14.3f} {speedup:7.2f}x"
        )
        payload["cases"].append(
            {
                "case": case,
                "interpreted_s": interpreted_s,
                "compiled_s": compiled_s,
                "speedup": speedup,
                "wire_bytes_per_rank": sched.volume_bytes,
                "certified": certified,
            }
        )

    info = plan_mod.plan_cache_info()
    pool = plan_mod.GLOBAL_POOL.stats()
    payload["plan_cache"] = {
        "hits": info.hits,
        "misses": info.misses,
        "compile_seconds": info.compile_seconds,
    }
    payload["pool"] = {
        "acquires": pool.acquires,
        "reuses": pool.reuses,
        "high_water_bytes": pool.high_water_bytes,
    }
    lines += [
        "",
        f"plan cache: {info.hits} hits / {info.misses} compiles "
        f"({info.compile_seconds * 1e3:.2f} ms compiling)",
        f"buffer pool: {pool.reuses}/{pool.acquires} acquires served "
        f"from the pool, high water {pool.high_water_bytes} B",
    ]
    lines += [""] + _apply_gate(payload)

    text = "\n".join(lines)
    write_artifact("plan.txt", text)
    path = write_json_artifact("plan.json", payload)
    print("\n" + text + f"\nwrote {path}")

    # the ISSUE's acceptance bar: >= 3x on the fragmented w layout
    assert speedups["fragmented-w"] >= 3.0, text
    # one plan per schedule, reused by every rank thereafter
    assert info.misses > 0 and info.hits > info.misses, info


def test_batched_backend_speedup():
    """The batched backend vs the reference walk on a (8, 8, 8) torus
    combining alltoallw — the workload ROADMAP item 1 calls out.  Bar:
    >= 10x, byte-identical results, balanced pool."""
    nbh = moore_neighborhood(3, 1, include_self=False)
    send_layout, s_total = _fragmented_layout(
        nbh.t, "send", pieces=BATCHED_PIECES
    )
    recv_layout, r_total = _fragmented_layout(
        nbh.t, "recv", pieces=BATCHED_PIECES
    )
    topo = CartTopology(BATCHED_DIMS)
    sched = build_alltoall_schedule(nbh, send_layout, recv_layout).prepare()
    batched = get_backend("batched")
    pool_before = plan_mod.GLOBAL_POOL.stats().outstanding_bytes

    # parity first: identical inputs through both executions
    a = _make_bufs(topo.size, s_total, r_total)
    b = _make_bufs(topo.size, s_total, r_total)
    batched.execute_all(topo, sched, a)
    run_reference(topo, sched, b)
    for r in range(topo.size):
        assert np.array_equal(a[r]["recv"], b[r]["recv"]), (
            f"batched diverges from the reference at rank {r}"
        )

    bufs = _make_bufs(topo.size, s_total, r_total)

    def run_batched():
        batched.execute_all(topo, sched, bufs)

    def run_interpreted():
        run_reference(topo, sched, bufs)

    run_batched()  # plan cache is warm from the parity pass anyway
    batched_s = _best_of(run_batched, REPS)
    interpreted_s = _best_of(run_interpreted, 1 if SMOKE else 2)
    speedup = interpreted_s / batched_s

    p = topo.size
    lines = [
        "batched backend vs the reference walk",
        f"combining alltoallw, {BATCHED_DIMS} torus (p={p}), Moore "
        f"t={nbh.t}, {BATCHED_PIECES} fragments/block, smoke={SMOKE}",
        "",
        f"interpreted {interpreted_s * 1e3:10.1f} ms/exec",
        f"batched     {batched_s * 1e3:10.1f} ms/exec",
        f"speedup     {speedup:10.1f}x",
    ]
    payload = {
        "benchmark": "plan-batched",
        "dims": list(BATCHED_DIMS),
        "stencil": "moore-3d",
        "t": nbh.t,
        "reps": REPS,
        "pieces": BATCHED_PIECES,
        "smoke": SMOKE,
        "cores": os.cpu_count(),
        "cases": [
            {
                "case": "batched-w",
                "interpreted_s": interpreted_s,
                "compiled_s": batched_s,
                "speedup": speedup,
                "wire_bytes_per_rank": sched.volume_bytes,
                "certified": ["reference", "batched/compiled"],
            }
        ],
    }
    lines += [""] + _apply_gate(payload)
    text = "\n".join(lines)
    write_artifact("plan_batched.txt", text)
    path = write_json_artifact("plan_batched.json", payload)
    print("\n" + text + f"\nwrote {path}")

    assert (
        plan_mod.GLOBAL_POOL.stats().outstanding_bytes == pool_before
    ), "batched benchmark leaked pooled scratch"
    # the ISSUE's acceptance bar: >= 10x over interpreted lockstep
    assert speedup >= 10.0, text
