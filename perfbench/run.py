"""The benchmark: one workload per process, end to end or layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload halo-regular --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer split of a traced run.  Every metric
is printed as ``name value unit`` together with ``fail_frac`` and the
machine (cores, Python, numpy); the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every op is checked by an oracle; see ``workloads.py`` and
``servemix.py`` for what each workload runs and why.  All figures are
measured on this machine; nothing is modelled.

The library is imported from ``src`` of the checkout.  The benchmark
exits with an error and prints no result when those sources are absent.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness

#: ``halo-irregular`` and ``cold-sweep`` run and are checked like the
#: others but are not listed in ``BENCHMARK.json``: on a shared 2-core
#: virtual machine their run-to-run spread exceeded the largest bound a
#: benchmark metric may have.  ``cold-sweep``'s bring-ups are
#: interpreter-bound (p90 spread 25.7% over ten seeds).  The small
#: (p = 256) collectives of ``halo-irregular`` slow down by up to a
#: third while the host is busy and recover when it is not, so their
#: op times are bimodal and their median jumps between the modes from
#: run to run (p50 spread 14-16% over ten seeds on a shared 2-vCPU
#: virtual machine, about 30% on a busier host of the same kind).
#: ``halo-irregular --trace 1`` still gives the per-layer split of the
#: fused combine kernels and the allgather tree; the set-up layers are
#: measured by ``setup_s`` and the ``setup.*`` split of the listed
#: workloads.
WORKLOADS = ("halo-regular", "halo-irregular", "cold-sweep", "serve-mix")


def make_runner(workload: str, seed: int) -> harness.Runner:
    if workload == "serve-mix":
        from servemix import ServeMix

        return ServeMix(seed)
    import workloads

    factory = {
        "halo-regular": workloads.halo_regular,
        "halo-irregular": workloads.halo_irregular,
        "cold-sweep": workloads.ColdSweep,
    }[workload]
    return harness.SyncRunner(workload, factory(seed), seed)


def library_tracer():
    """Span wrappers on the public entry points of each layer."""
    from repro.analyze import schedule_verifier
    from repro.core import (
        allgather_schedule,
        alltoall_schedule,
        plan,
        reduce_schedule,
    )
    from repro.core.backend.batched import BatchedBackend
    from repro.core.schedule import Schedule
    from repro.core.schedule_cache import ScheduleCache
    from repro.serve import client, server
    from repro.serve.protocol import ScheduleRequest
    from spans import Tracer

    tracer = Tracer()
    for module, name in (
        (alltoall_schedule, "build_alltoall_schedule"),
        (allgather_schedule, "build_allgather_schedule"),
        (reduce_schedule, "build_reduce_schedule"),
    ):
        tracer.span(module, name, "schedule.build")
    tracer.span(ScheduleRequest, "build", "schedule.build")
    tracer.span(Schedule, "prepare", "schedule.build")
    tracer.lookup_span(ScheduleCache, "get_or_build",
                       "schedule_cache.lookup", key_arg=1)
    tracer.span(schedule_verifier, "certify_schedule", "analyze.certify")
    tracer.span(server, "certify_schedule", "analyze.certify")
    tracer.span(plan, "get_or_compile_batched", "plan.lookup")
    tracer.span(plan, "compile_batched_plan", "plan.compile")
    tracer.span(plan.BatchedPlan, "execute", "plan.execute")
    tracer.span(plan.BatchedRound, "pack_into", "plan.pack")
    tracer.span(plan.BatchedRound, "unpack_from", "plan.unpack")
    tracer.span(plan.BatchedReduceRound, "run", "plan.combine")
    tracer.span(plan.CombineProgram, "run", "plan.combine")
    tracer.span(plan.BatchedPlan, "run_local_copies", "plan.local_copy")
    tracer.span(BatchedBackend, "execute_all", "backend.execute")
    tracer.async_span(client.AsyncScheduleClient, "request", "serve.rpc")
    tracer.span(client, "schedule_from_dict", "serve.decode")
    return tracer


def _untraced(runner: harness.Runner, seconds: float
              ) -> tuple[dict, tuple, tuple]:
    segments = harness.SEGMENTS
    setup, timed = harness.Phase(), harness.Phase()
    for _ in range(segments):
        setup.extend(runner.setup(runner.setup_reps // segments, None))
        timed.extend(runner.phase(seconds / segments,
                                  -(-harness.MIN_OPS // segments), None))
    values = harness.end_to_end_metrics(setup, timed)
    return values, harness.END_TO_END, (setup, timed)


def _traced(runner: harness.Runner, seconds: float
            ) -> tuple[dict, tuple, tuple]:
    """Traced set-up, then untraced and traced blocks in turn."""
    tracer = library_tracer()
    tracer.install()
    try:
        setup = runner.setup(runner.setup_reps, tracer)
    finally:
        tracer.uninstall()
    plain, traced = harness.Phase(), harness.Phase()
    pool = harness.PoolTally()
    served: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or len(traced.latencies) < harness.TRACE_MIN_OPS):
        plain.extend(runner.phase(harness.TRACE_BLOCK_S, 1, None))
        pool0, server0 = harness.pool_stats(), runner.server_counts()
        tracer.install()
        try:
            traced.extend(runner.phase(harness.TRACE_BLOCK_S, 1, tracer))
        finally:
            tracer.uninstall()
        pool.add(pool0, harness.pool_stats())
        for name, value in runner.server_counts().items():
            served[name] = served.get(name, 0.0) + value - server0[name]
    values = harness.layer_metrics(setup, plain, traced, runner, pool,
                                   served)
    return values, harness.PER_LAYER, (setup, plain, traced)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object (see module doc)."""
    runner = make_runner(workload, seed)
    try:
        run = _traced if trace else _untraced
        values, units, phases = run(runner, seconds)
    finally:
        runner.close()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units
        },
    }


def report(workload: str, args: argparse.Namespace, result: dict) -> None:
    env = harness.environment()
    print(f"# perfbench {workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# machine " + json.dumps(env, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"fail_frac {fail_frac:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    harness.require_src()
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    report(args.workload, args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
