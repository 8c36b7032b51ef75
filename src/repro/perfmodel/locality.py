"""Cross-invocation data-locality model.

The benchmark programs are iterative: the same parallel loop runs every
timestep over the same data. Under static scheduling thread *t* touches
the *same* iterations every invocation, so its slice of the data stays
resident in its cluster's cache; dynamic and guided hand out different
ranges every time ("the non-predictive behavior of this approach tends
to degrade data locality" — Ayguadé et al., quoted by the paper), so a
thread keeps faulting in data some other core touched last. AID-static
re-derives nearly identical per-thread blocks each invocation and so
retains most of static's locality — one of the reasons it beats dynamic
on uniform loops beyond mere dispatch-overhead savings.

We model it at segment granularity: each loop's iteration space is split
into segments; after every invocation each segment records which thread
executed it. During the next invocation, the portion of a range whose
segments the executing thread does *not* already own runs slower by
``penalty x memory_weight`` (compute-bound kernels do not care where
their data sits; streaming kernels re-fetch everything anyway, so the
penalty is also scaled down by how cacheable the working set is).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.perfmodel.kernel import KernelProfile


@dataclass
class LoopOwnership:
    """Which thread touched each iteration segment last, for one loop.

    Per-thread prefix sums over the owner map (``_cum[t + 1][s]`` =
    segments below ``s`` owned by thread ``t``) make every warm-fraction
    query O(1); they are rebuilt lazily after each :meth:`update`.
    """

    n_iterations: int
    segment_size: int
    owner: np.ndarray  # int16, -1 = never executed
    invocations_seen: int = 0
    _cum: np.ndarray | None = field(default=None, repr=False, compare=False)

    @classmethod
    def fresh(cls, n_iterations: int, segments: int) -> "LoopOwnership":
        seg = max(1, n_iterations // max(1, segments))
        n_seg = (n_iterations + seg - 1) // seg
        return cls(
            n_iterations=n_iterations,
            segment_size=seg,
            owner=np.full(n_seg, -1, dtype=np.int16),
        )

    def _prefix(self, tid: int) -> np.ndarray:
        cum = self._cum
        if cum is None:
            # Row r counts segments owned by r - 1 (row 0: never
            # executed); one extra all-zero row serves every thread that
            # owns nothing.
            rows = int(self.owner.max()) + 2 if self.owner.size else 1
            owned = self.owner[None, :] == np.arange(-1, rows - 1)[:, None]
            cum = np.zeros((rows + 1, self.owner.size + 1))
            np.cumsum(owned, axis=1, dtype=np.float64, out=cum[:rows, 1:])
            self._cum = cum
        return cum[tid + 1] if -1 <= tid < len(cum) - 2 else cum[-1]

    def warm_fraction(self, tid: int, lo: int, hi: int) -> float:
        """Fraction of [lo, hi) whose segments thread ``tid`` owns."""
        if hi <= lo:
            return 1.0
        s0 = lo // self.segment_size
        s1 = min((hi - 1) // self.segment_size + 1, self.owner.size)
        if s1 <= s0:
            return 1.0
        cum = self._prefix(tid)
        # Integer counts are exact in float64, so this is the identical
        # float a count over the owner slice divided by its length gives.
        return float(cum[s1] - cum[s0]) / (s1 - s0)

    def warm_fractions(
        self, tid: int, los: np.ndarray, his: np.ndarray
    ) -> np.ndarray:
        """:meth:`warm_fraction` over a column of non-empty in-range
        ranges, element for element the same floats."""
        s0 = los // self.segment_size
        s1 = (his - 1) // self.segment_size + 1
        cum = self._prefix(tid)
        return (cum[s1] - cum[s0]) / (s1 - s0)

    def update(self, ranges: list[tuple[int, int, int]]) -> None:
        """Record one invocation's assignment: ``(tid, lo, hi)`` tuples."""
        if len(ranges) > 64:
            self._update_bulk(ranges)
        else:
            for tid, lo, hi in ranges:
                if hi <= lo:
                    continue
                s0 = lo // self.segment_size
                s1 = (hi - 1) // self.segment_size + 1
                self.owner[s0:s1] = tid
        self.invocations_seen += 1
        self._cum = None

    def _update_bulk(self, ranges: list[tuple[int, int, int]]) -> None:
        """Vectorized segment painting, identical to the scalar loop.

        Fine-grained dynamic schedules produce one range per chunk —
        hundreds of thousands per grid — and per-range numpy slice
        stores dominate. Instead, expand every range to its covered
        segment indices and fancy-assign once: numpy applies duplicate
        indices in order, so the last-written range wins exactly as in
        the sequential loop.
        """
        arr = np.asarray(ranges, dtype=np.int64)
        tids, los, his = arr[:, 0], arr[:, 1], arr[:, 2]
        live = his > los
        if not np.any(live):
            return
        tids, los, his = tids[live], los[live], his[live]
        seg = self.segment_size
        s0 = los // seg
        s1 = (his - 1) // seg + 1
        lens = s1 - s0
        total = int(lens.sum())
        # Concatenated aranges [s0_i, s1_i) built by cumsum: each block
        # starts at its s0 and then increments by one.
        steps = np.ones(total, dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        steps[starts] = s0 - np.concatenate(([0], s0[:-1] + lens[:-1] - 1))
        seg_idx = np.cumsum(steps)
        self.owner[seg_idx] = np.repeat(
            tids.astype(self.owner.dtype), lens
        )


@dataclass(frozen=True)
class LocalityModel:
    """Converts cold (non-owned) iteration ranges into a slowdown.

    Attributes:
        penalty: maximum relative slowdown for a fully cold range of a
            fully memory-bound kernel (0.35 = 35% slower).
        segments: target segment count per loop (granularity of the
            ownership map).
        enabled: turn the model off entirely (ablation).
    """

    penalty: float = 0.35
    segments: int = 256
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.penalty < 0.0:
            raise ConfigError("locality penalty must be >= 0")
        if self.segments <= 0:
            raise ConfigError("segment count must be positive")

    def fresh_ownership(self, n_iterations: int) -> LoopOwnership:
        return LoopOwnership.fresh(n_iterations, self.segments)

    def slowdown(
        self,
        kernel: KernelProfile,
        ownership: LoopOwnership | None,
        tid: int,
        lo: int,
        hi: int,
    ) -> float:
        """Multiplier (>= 1) on the execution time of range [lo, hi).

        The first invocation of a loop is charged nothing (everyone
        starts cold; the paper likewise discards the first run of each
        program). Streaming kernels (mlp ~ 1, huge working sets) re-fetch
        from DRAM regardless of ownership, so the penalty scales with
        how much the kernel actually reuses cached data.
        """
        if (
            not self.enabled
            or ownership is None
            or ownership.invocations_seen == 0
        ):
            return 1.0
        cold = 1.0 - ownership.warm_fraction(tid, lo, hi)
        if cold <= 0.0:
            return 1.0
        reuse = kernel.memory_weight * (1.0 - 0.5 * kernel.mlp)
        return 1.0 + self.penalty * reuse * cold

    def active(self, ownership: LoopOwnership | None) -> bool:
        """Whether :meth:`slowdown` can return anything but 1.0 (the
        condition it checks inline, kept inline on the per-dispatch
        path)."""
        return (
            self.enabled
            and ownership is not None
            and ownership.invocations_seen > 0
        )

    def slowdowns(
        self,
        kernel: KernelProfile,
        ownership: LoopOwnership,
        tid: int,
        los: np.ndarray,
        his: np.ndarray,
    ) -> np.ndarray:
        """:meth:`slowdown` over a column of non-empty ranges of an
        :meth:`active` ownership map, element for element the same
        floats."""
        cold = 1.0 - ownership.warm_fractions(tid, los, his)
        reuse = kernel.memory_weight * (1.0 - 0.5 * kernel.mlp)
        return np.where(cold <= 0.0, 1.0, 1.0 + self.penalty * reuse * cold)
