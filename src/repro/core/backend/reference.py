"""The reference execution: the uncompiled block-set walk.

Every backend runs the compiled :class:`~repro.core.plan.BatchedPlan`.
This module keeps the one execution that does not: it walks the
schedule's own :class:`~repro.mpisim.datatypes.BlockSet` objects for
every rank of the topology, in lockstep over the deferred-delivery exchange of
:mod:`repro.core.backend.lockstep`, with the combine steps applied one by
one (first write initializes, later writes fold, ``when_round`` gates on
the round's receive source).  It is what lowering must agree with, so
parity tests, the verifier's V506 check and the compiled-vs-interpreted
benchmarks call :func:`run_reference` explicitly.  It is not a
registered backend, and no environment variable selects it.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.backend.base import allocate_buffers
from repro.core.backend.interpreter import CARTTAG
from repro.core.backend.lockstep import (
    LockstepExchange,
    LockstepTransport,
    run_lockstep,
)
from repro.core.plan import GLOBAL_POOL, translate_all
from repro.core.schedule import LocalCombine, Schedule
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import byte_view
from repro.mpisim.exceptions import ScheduleError


class _RankWalk:
    """One rank's uncompiled walk, driven like an interpreter."""

    def __init__(
        self,
        transport: LockstepTransport,
        schedule: Schedule,
        buffers: Mapping[str, np.ndarray],
        peers: Sequence[Sequence[tuple[list[int], list[int]]]],
        tag: int,
    ) -> None:
        self.transport = transport
        self.schedule = schedule
        self.buffers = allocate_buffers(schedule, buffers, pool=GLOBAL_POOL)
        self._pooled_temp = (
            self.buffers["temp"]
            if schedule.temp_nbytes > 0 and "temp" not in buffers
            else None
        )
        self.peers = peers
        self.tag = tag
        self._phase_index = 0
        self.pending: list[Any] = []
        #: accumulator regions initialized so far: the first write to a
        #: region copies, later ones apply the combine operator
        self._inited: set[tuple[str, int, int]] = set()

    def begin(self) -> None:
        if self.schedule.is_reduction:
            self._run_combine_steps(self.schedule.pre_steps, None)

    def post_next_phase(self) -> None:
        pi = self._phase_index
        rank = self.transport.rank
        pending: list[Any] = []
        for ri, rnd in enumerate(self.schedule.phases[pi].rounds):
            sources, targets = self.peers[pi][ri]
            seq = (pi, ri)
            if sources[rank] >= 0:
                pending.append(
                    self.transport.post_recv(
                        rnd.recv_blocks, self.buffers, sources[rank],
                        self.tag, seq,
                    )
                )
            if targets[rank] >= 0:
                pending.append(
                    self.transport.post_send(
                        rnd.send_blocks, self.buffers, targets[rank],
                        self.tag, seq,
                    )
                )
        self.pending = pending

    def complete_phase(self) -> None:
        self.transport.waitall(self.pending)
        self.pending = []
        pi = self._phase_index
        steps = self.schedule.phases[pi].combine_steps
        if self.schedule.is_reduction and steps:
            rank = self.transport.rank
            live = [sources[rank] >= 0 for sources, _ in self.peers[pi]]
            self._run_combine_steps(steps, live)
        self._phase_index += 1

    def finish(self) -> None:
        if self.schedule.is_reduction and any(
            (ref.buffer, ref.offset, ref.nbytes) not in self._inited
            for ref in self.schedule.required_outputs
        ):
            raise ScheduleError(
                "reduction received no contributions "
                "(all neighbors off the mesh)"
            )
        self.schedule.run_local_copies(self.buffers)
        self.abort()

    def abort(self) -> None:
        self.pending = []
        if self._pooled_temp is not None:
            GLOBAL_POOL.release(self._pooled_temp)
            self._pooled_temp = None

    def _run_combine_steps(
        self, steps: Sequence[LocalCombine], live: "list[bool] | None"
    ) -> None:
        """Apply each step in order, with first-write-wins
        initialization and ``when_round`` gating (``live[r]``: round
        ``r`` of the phase had an on-mesh receive source; ``None`` for
        the ungated pre-steps)."""
        from repro.core.reduce_schedule import resolve_op_token

        op = resolve_op_token(self.schedule.combine_op)
        dt = np.dtype(self.schedule.combine_dtype)
        for step in steps:
            if step.when_round is not None:
                if live is None or not 0 <= step.when_round < len(live):
                    raise ScheduleError(
                        f"combine gate names round {step.when_round}, the "
                        f"step list has {0 if live is None else len(live)} "
                        f"round(s)"
                    )
                if not live[step.when_round]:
                    continue
            key = (step.dst.buffer, step.dst.offset, step.dst.nbytes)
            if step.src.nbytes == 0:  # zero-size blocks carry no data
                self._inited.add(key)
                continue
            src = byte_view(self.buffers[step.src.buffer])[
                step.src.offset : step.src.offset + step.src.nbytes
            ].view(dt)
            dst = byte_view(self.buffers[step.dst.buffer])[
                step.dst.offset : step.dst.offset + step.dst.nbytes
            ].view(dt)
            if key in self._inited:
                dst[...] = op(dst, src)
            else:
                dst[...] = src
                self._inited.add(key)


def run_reference(
    topo: CartTopology,
    schedule: Schedule,
    rank_buffers: Sequence[Mapping[str, np.ndarray]],
    *,
    tag: int = CARTTAG,
) -> None:
    """Execute ``schedule`` for every rank of ``topo`` by walking its
    block sets, mutating ``rank_buffers`` in place — the result every
    compiled execution must reproduce byte for byte."""
    p = topo.size
    if len(rank_buffers) != p:
        raise ScheduleError(
            f"need one buffer set per rank: p={p}, got {len(rank_buffers)}"
        )
    schedule.prepare()
    peers = [
        [
            (
                translate_all(
                    topo, tuple(-o for o in rnd.recv_source_offset)
                ).tolist(),
                translate_all(topo, rnd.offset).tolist(),
            )
            for rnd in phase.rounds
        ]
        for phase in schedule.phases
    ]
    exchange = LockstepExchange()
    walks = [
        _RankWalk(
            LockstepTransport(exchange, r), schedule, rank_buffers[r],
            peers, tag,
        )
        for r in range(p)
    ]
    run_lockstep(walks, exchange, len(schedule.phases))
