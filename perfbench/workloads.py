"""The single-stream workloads: two warm halo mixes and the cold sweep.

``halo-regular``
    Combining alltoall, Moore 3-D (t = 26), m = 256 B, uniform layout,
    (8, 8, 8) torus (p = 512), batched backend; one op is one
    collective.  The paper's headline shape.  Most of its compiled
    block sets lower to per-byte index arrays, so pack, unpack and
    buffer copy-in/out do almost all the work; build and certify show
    only in ``setup_s``.
``halo-irregular``
    2-D Moore radius 2 (t = 24) on a (16, 16) torus; one op is one
    solver step of three collectives: an alltoallw over a seeded
    irregular layout (1-4 runs per block, odd lengths, random gaps), a
    ``reduce_neighbors`` int64 sum with m = 512 B, and a combining
    allgather with m = 256 B.  The same plan and backend layers used
    differently: runs that cannot become strided views, fused combine
    kernels, the allgather tree, at another d, t and p.
``cold-sweep``
    Every (stencil, torus) pair of the paper's conformance grid times
    {combining alltoall, allgather, reduce_neighbors}; one op is one
    bring-up from cleared caches: build, certify, batched compile and
    one checked execution.  The set-up layers do the work here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from collectives import (
    Allgather,
    Alltoall,
    Collective,
    ReduceSum,
    source_table,
    uniform_alltoall,
)
from repro.analyze.schedule_verifier import paper_stencil_grid
from repro.core import plan as plan_mod
from repro.core import schedule_cache
from repro.core.schedule import Schedule
from repro.core.stencils import moore_neighborhood, named_stencil
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import BlockRef, BlockSet


def plan_counts(sched: Schedule, bplan: plan_mod.BatchedPlan
                ) -> dict[str, float]:
    """Exact counts of one schedule and its compiled batched plan.

    ``plan.kernels`` counts compiled pack/unpack block sets (one per
    round side), ``plan.index_kernels`` those lowered to per-byte index
    arrays."""
    sets = [
        bs
        for rounds in bplan.phases
        for rnd in rounds
        for bs in (rnd.send, rnd.recv)
        if bs is not None
    ]
    return {
        "schedule.rounds": float(sched.num_rounds),
        "schedule.volume_bytes": float(sched.volume_bytes),
        "plan.kernels": float(len(sets)),
        "plan.index_kernels": float(sum(bs.uses_indices for bs in sets)),
        "plan.wire_bytes": float(bplan.wire_bytes),
    }


def add_counts(total: dict[str, float], part: dict[str, float]) -> None:
    for name, value in part.items():
        total[name] = total.get(name, 0.0) + value


class Halo:
    """A fixed list of collectives run back to back as one op, warm."""

    cycle = 1
    #: a cold bring-up certifies every schedule, which takes seconds at
    #: p = 512 and varies run to run; setup_s is the median of five
    setup_reps = 5

    def __init__(self, collectives: Sequence[Collective]) -> None:
        self.collectives = list(collectives)
        self.floor_bytes = sum(c.recv_nbytes for c in self.collectives)

    def reset(self) -> None:
        schedule_cache.cache_clear()

    def prepare(self, op_index: int, poison: int) -> None:
        for coll in self.collectives:
            coll.prepare(op_index, poison)

    def prepare_setup(self, rep: int, poison: int) -> None:
        self.prepare(rep, poison)

    def op(self) -> None:
        for coll in self.collectives:
            coll.run()

    def check(self) -> bool:
        return all([coll.check() for coll in self.collectives])

    def corrupt(self) -> None:
        self.collectives[-1].corrupt(rank=1)

    def counts(self) -> dict[str, float]:
        total: dict[str, float] = {}
        for coll in self.collectives:
            sched, _hit, _s = schedule_cache.get_or_build(
                coll.key, coll.build, coll.certify
            )
            bplan, _hit = plan_mod.get_or_compile_batched(
                sched, coll.topo,
                sizes=plan_mod.effective_sizes(sched, coll.bufs[0]),
            )
            add_counts(total, plan_counts(sched, bplan))
        return total


def halo_regular(seed: int) -> Halo:
    rng = np.random.default_rng([seed, 2])
    nbh = moore_neighborhood(3, 1, include_self=False)
    topo = CartTopology((8, 8, 8))
    src = source_table(topo, nbh)
    return Halo([uniform_alltoall(topo, nbh, src, [256] * nbh.t, rng)])


def _odd_split(total: int, parts: int, rng: np.random.Generator) -> list[int]:
    """``parts`` odd positive lengths summing to ``total`` (same parity)."""
    spare = (total - parts) // 2
    cuts = np.sort(rng.integers(0, spare + 1, parts - 1))
    shares = np.diff(np.concatenate([[0], cuts, [spare]]))
    return [1 + 2 * int(s) for s in shares]


def _place(buffer: str, lengths: Sequence[int], pos: int,
           rng: np.random.Generator) -> tuple[BlockSet, int]:
    refs = []
    for n in lengths:
        pos += int(rng.integers(1, 17))  # gap: runs never coalesce
        refs.append(BlockRef(buffer, pos, n))
        pos += n
    return BlockSet(refs), pos


def irregular_layout(t: int, rng: np.random.Generator
                     ) -> tuple[list[BlockSet], list[BlockSet]]:
    """Per-neighbor send/recv block sets: 1-4 runs of odd length per
    side, random gaps, equal byte totals on both sides of a block.

    The seed shuffles a fixed multiset of send-side run counts and run
    lengths over the blocks, so every seed moves the same number of
    bytes in the same number of send runs; only where they lie varies.
    """
    counts = [int(k) for k in rng.permutation([1 + i % 4 for i in range(t)])]
    nruns = sum(counts)
    lengths = [int(n) for n in
               rng.permutation([1 + 2 * (j % 16) for j in range(nruns)])]
    send, recv = [], []
    spos = rpos = used = 0
    for k in counts:
        block = lengths[used:used + k]
        used += k
        total = sum(block)
        recv_runs = int(rng.choice([r for r in range(1, 5)
                                    if r % 2 == total % 2 and r <= total]))
        sb, spos = _place("send", block, spos, rng)
        rb, rpos = _place("recv", _odd_split(total, recv_runs, rng), rpos,
                          rng)
        send.append(sb)
        recv.append(rb)
    return send, recv


def halo_irregular(seed: int) -> Halo:
    rng = np.random.default_rng([seed, 3])
    nbh = moore_neighborhood(2, 2, include_self=False)
    topo = CartTopology((16, 16))
    src = source_table(topo, nbh)
    send, recv = irregular_layout(nbh.t, rng)
    return Halo([
        Alltoall(topo, nbh, src, send, recv, rng),
        ReduceSum(topo, nbh, src, 512, rng),
        Allgather(topo, nbh, src, 256, rng),
    ])


#: collective kinds of the cold sweep
SWEEP_KINDS = ("alltoall", "allgather", "reduce")


class ColdSweep:
    """Bring-ups of the paper grid, each from cleared caches; the order
    within each sweep is a seeded permutation."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng([seed, 4])
        self.items = [
            (name, dims, kind)
            for name, dims in paper_stencil_grid()
            if named_stencil(name).d == len(dims)
            for kind in SWEEP_KINDS
        ]
        self.cycle = len(self.items)
        self.floor_bytes = 0
        self.setup_reps = 5
        self._order = list(range(self.cycle))
        self._sources: dict[tuple, np.ndarray] = {}
        self.current: Collective | None = None

    def _collective(self, item: tuple, rng: np.random.Generator
                    ) -> Collective:
        name, dims, kind = item
        nbh = named_stencil(name)
        topo = CartTopology(dims)
        src = self._sources.get((name, dims))
        if src is None:
            src = self._sources[(name, dims)] = source_table(topo, nbh)
        if kind == "alltoall":
            sizes = [4 * (1 + i % 3) for i in range(nbh.t)]
            return uniform_alltoall(topo, nbh, src, sizes, rng)
        if kind == "allgather":
            return Allgather(topo, nbh, src, 4, rng)
        return ReduceSum(topo, nbh, src, 8, rng)

    def reset(self) -> None:
        schedule_cache.cache_clear()

    def _bring_up(self, item: tuple, op_index: int, poison: int) -> None:
        self.reset()
        self.current = self._collective(item, self._rng)
        self.current.prepare(op_index, poison)

    def prepare(self, op_index: int, poison: int) -> None:
        pos = op_index % self.cycle
        if pos == 0:
            self._order = [int(i) for i in self._rng.permutation(self.cycle)]
        self._bring_up(self.items[self._order[pos]], op_index, poison)

    def prepare_setup(self, rep: int, poison: int) -> None:
        # the same (first) grid item every repetition, so the set-up
        # time does not depend on the seed
        self._bring_up(self.items[0], rep, poison)

    def op(self) -> None:
        self.current.run()

    def check(self) -> bool:
        return self.current.check()

    def corrupt(self) -> None:
        self.current.corrupt(rank=1)

    def counts(self) -> dict[str, float]:
        """Counts summed over one whole sweep."""
        total: dict[str, float] = {}
        rng = np.random.default_rng(0)
        for item in self.items:
            coll = self._collective(item, rng)
            sched = coll.build().prepare()
            bplan = plan_mod.compile_batched_plan(
                sched, coll.topo, plan_mod.effective_sizes(sched,
                                                           coll.bufs[0])
            )
            add_counts(total, plan_counts(sched, bplan))
        return total
