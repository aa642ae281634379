"""One Cartesian collective as the benchmark drives and checks it.

A :class:`Collective` holds everything one collective call needs: the
canonical schedule-cache key, a build function, the certify hook, and the
per-rank buffers as rows of one ``(p, nbytes)`` matrix per buffer name
(each rank's dict entry is a row view, which is what the batched
backend copies in and out).  :meth:`Collective.run` is the measured
call: a ``schedule_cache.get_or_build`` lookup (build and certify on a
miss) followed by ``BatchedBackend.execute_all``.

The oracle never touches schedules or plans.  It indexes every
neighbor through ``CartTopology.translate`` once, then checks each
op's output with numpy against the collective's definition: receive
block ``i`` of rank ``r`` comes from rank ``r - N[i]``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analyze import schedule_verifier
from repro.core import allgather_schedule, alltoall_schedule, reduce_schedule
from repro.core import schedule_cache
from repro.core.backend.batched import BatchedBackend
from repro.core.neighborhood import Neighborhood
from repro.core.schedule import Schedule, uniform_block_layout
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import BlockRef, BlockSet

BACKEND = BatchedBackend()


def source_table(topo: CartTopology, nbh: Neighborhood) -> np.ndarray:
    """``(p, t)`` ranks: entry ``[r, i]`` is the rank ``r`` receives
    block ``i`` from, resolved by ``CartTopology.translate``."""
    src = np.empty((topo.size, nbh.t), dtype=np.int64)
    for i, off in enumerate(nbh):
        neg = [-int(o) for o in off]
        for r in range(topo.size):
            src[r, i] = topo.translate(r, neg)
    return src


def _byte_index(blocks: BlockSet) -> np.ndarray:
    return np.concatenate(
        [np.arange(b.offset, b.offset + b.nbytes) for b in blocks]
        or [np.empty(0, dtype=np.int64)]
    ).astype(np.int64)


class Collective:
    """Base: buffers, lookup-and-execute, poison, and the common checks.

    Subclasses set ``kind``, ``layout_sig``, the buffer sizes, and
    implement :meth:`build` and :meth:`expected_ok`.
    """

    kind = ""

    def __init__(self, topo: CartTopology, nbh: Neighborhood,
                 src: np.ndarray, send_bytes: int, recv_bytes: int,
                 rng: np.random.Generator) -> None:
        self.topo = topo
        self.nbh = nbh
        self.src = src
        p = topo.size
        self.base = rng.integers(0, 256, (p, send_bytes), dtype=np.uint8)
        self.send = self.base.copy()
        self.recv = np.zeros((p, recv_bytes), dtype=np.uint8)
        self.bufs = [
            {"send": self.send[r], "recv": self.recv[r]} for r in range(p)
        ]
        self.poison = 0
        self.xor = 0
        self.key = schedule_cache.schedule_key(
            self.kind, nbh, self.layout_sig(), topo.dims, topo.periods
        )

    # -- the measured call ----------------------------------------------
    def build(self) -> Schedule:
        raise NotImplementedError

    def layout_sig(self) -> tuple:
        raise NotImplementedError

    def certify(self, sched: object) -> None:
        schedule_verifier.certify_schedule(
            sched, self.topo.dims, self.topo.periods
        )

    def run(self) -> None:
        sched, _hit, _seconds = schedule_cache.get_or_build(
            self.key, self.build, self.certify
        )
        BACKEND.execute_all(self.topo, sched, self.bufs)

    # -- harness side (never timed) -------------------------------------
    def prepare(self, op_index: int, poison: int) -> None:
        """Fresh send content for this op and a poisoned receive side."""
        self.xor = op_index & 0xFF
        np.bitwise_xor(self.base, self.xor, out=self.send)
        self.poison = poison
        self.recv.fill(poison)

    def check(self) -> bool:
        """The send side is left as it was, and the output matches."""
        send_kept = np.array_equal(self.send, self.base ^ np.uint8(self.xor))
        return send_kept and self.expected_ok()

    def expected_ok(self) -> bool:
        raise NotImplementedError

    def corrupt(self, rank: int) -> None:
        """Flip one output byte of ``rank`` (harness self-test)."""
        self.recv[rank, self.recv.shape[1] // 2] ^= 0xFF

    @property
    def recv_nbytes(self) -> int:
        return int(self.recv.size)


class Alltoall(Collective):
    """Combining alltoall(w): per-neighbor block sets of any shape."""

    kind = "alltoall/combining"

    def __init__(self, topo: CartTopology, nbh: Neighborhood,
                 src: np.ndarray, send_blocks: Sequence[BlockSet],
                 recv_blocks: Sequence[BlockSet],
                 rng: np.random.Generator) -> None:
        self.send_blocks = list(send_blocks)
        self.recv_blocks = list(recv_blocks)
        self.send_idx = [_byte_index(bs) for bs in self.send_blocks]
        self.recv_idx = [_byte_index(bs) for bs in self.recv_blocks]
        send_bytes = max(b.end() for bs in self.send_blocks for b in bs)
        recv_bytes = max(b.end() for bs in self.recv_blocks for b in bs)
        covered = np.zeros(recv_bytes, dtype=bool)
        for idx in self.recv_idx:
            covered[idx] = True
        #: receive bytes no block describes: must keep the poison
        self.gaps = np.nonzero(~covered)[0]
        super().__init__(topo, nbh, src, send_bytes, recv_bytes, rng)

    def layout_sig(self) -> tuple:
        return (
            schedule_cache.layout_signature(self.send_blocks),
            schedule_cache.layout_signature(self.recv_blocks),
        )

    def build(self) -> Schedule:
        return alltoall_schedule.build_alltoall_schedule(
            self.nbh, self.send_blocks, self.recv_blocks
        )

    def expected_ok(self) -> bool:
        for i in range(self.nbh.t):
            want = self.send[np.ix_(self.src[:, i], self.send_idx[i])]
            if not np.array_equal(self.recv[:, self.recv_idx[i]], want):
                return False
        return bool((self.recv[:, self.gaps] == self.poison).all())


def uniform_alltoall(topo: CartTopology, nbh: Neighborhood, src: np.ndarray,
                     sizes: Sequence[int], rng: np.random.Generator
                     ) -> Alltoall:
    return Alltoall(
        topo, nbh, src,
        uniform_block_layout(sizes, "send"),
        uniform_block_layout(sizes, "recv"),
        rng,
    )


class Allgather(Collective):
    """Combining allgather: one ``m``-byte block to every neighbor."""

    kind = "allgather/combining"

    def __init__(self, topo: CartTopology, nbh: Neighborhood,
                 src: np.ndarray, m: int, rng: np.random.Generator) -> None:
        self.m = m
        super().__init__(topo, nbh, src, m, nbh.t * m, rng)

    def layout_sig(self) -> tuple:
        return ((("send", 0, self.m),),) + schedule_cache.layout_signature(
            uniform_block_layout([self.m] * self.nbh.t, "recv")
        )

    def build(self) -> Schedule:
        return allgather_schedule.build_allgather_schedule(
            self.nbh,
            BlockSet([BlockRef("send", 0, self.m)]),
            uniform_block_layout([self.m] * self.nbh.t, "recv"),
        )

    def expected_ok(self) -> bool:
        got = self.recv.reshape(self.topo.size, self.nbh.t, self.m)
        return np.array_equal(got, self.send[self.src])


class ReduceSum(Collective):
    """Combining ``reduce_neighbors`` with an int64 sum."""

    kind = "reduce/combining"

    def __init__(self, topo: CartTopology, nbh: Neighborhood,
                 src: np.ndarray, m: int, rng: np.random.Generator) -> None:
        if m % 8:
            raise ValueError("int64 reduction blocks are multiples of 8 B")
        self.m = m
        super().__init__(topo, nbh, src, m, m, rng)

    def layout_sig(self) -> tuple:
        return ((self.m, "int64", "sum"),)

    def build(self) -> Schedule:
        return reduce_schedule.build_reduce_schedule(
            self.nbh, m_bytes=self.m, dtype="int64", op="sum"
        )

    def expected_ok(self) -> bool:
        values = self.send.view(np.int64)
        want = values[self.src].sum(axis=1)
        return np.array_equal(self.recv.view(np.int64), want)
