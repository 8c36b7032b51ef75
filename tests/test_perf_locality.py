"""Unit tests for the cross-invocation locality model."""

import pytest

from repro.perfmodel.kernel import KernelProfile
from repro.perfmodel.locality import LocalityModel, LoopOwnership


def mem_kernel(mlp=0.0):
    return KernelProfile(
        name="mem", compute_weight=0.0, ilp=0.0, working_set_mb=1.0, mlp=mlp
    )


COMPUTE = KernelProfile(name="cpu", compute_weight=1.0, ilp=0.5, working_set_mb=0.0)


def test_fresh_ownership_unowned():
    own = LoopOwnership.fresh(1000, 100)
    assert own.warm_fraction(0, 0, 1000) == 0.0
    assert own.invocations_seen == 0


def test_update_then_warm():
    own = LoopOwnership.fresh(100, 10)
    own.update([(3, 0, 50), (4, 50, 100)])
    assert own.warm_fraction(3, 0, 50) == 1.0
    assert own.warm_fraction(4, 0, 50) == 0.0
    assert own.warm_fraction(3, 0, 100) == pytest.approx(0.5)
    assert own.invocations_seen == 1


def test_first_invocation_free():
    model = LocalityModel(penalty=0.5)
    own = LoopOwnership.fresh(100, 10)
    assert model.slowdown(mem_kernel(), own, 0, 0, 100) == 1.0


def test_cold_range_slowed_after_first_invocation():
    model = LocalityModel(penalty=0.5)
    own = LoopOwnership.fresh(100, 10)
    own.update([(1, 0, 100)])
    # Thread 0 touches data thread 1 owned: fully cold, mlp=0 kernel.
    assert model.slowdown(mem_kernel(mlp=0.0), own, 0, 0, 100) == pytest.approx(1.5)
    # The owner itself runs at full speed.
    assert model.slowdown(mem_kernel(), own, 1, 0, 100) == 1.0


def test_compute_bound_kernel_immune():
    model = LocalityModel(penalty=0.5)
    own = LoopOwnership.fresh(100, 10)
    own.update([(1, 0, 100)])
    assert model.slowdown(COMPUTE, own, 0, 0, 100) == 1.0


def test_streaming_kernel_half_penalty():
    model = LocalityModel(penalty=0.4)
    own = LoopOwnership.fresh(100, 10)
    own.update([(1, 0, 100)])
    full = model.slowdown(mem_kernel(mlp=0.0), own, 0, 0, 100)
    stream = model.slowdown(mem_kernel(mlp=1.0), own, 0, 0, 100)
    assert stream - 1.0 == pytest.approx((full - 1.0) / 2)


def test_disabled_model_is_free():
    model = LocalityModel(enabled=False)
    own = LoopOwnership.fresh(100, 10)
    own.update([(1, 0, 100)])
    assert model.slowdown(mem_kernel(), own, 0, 0, 100) == 1.0


def test_partial_warmth_interpolates():
    model = LocalityModel(penalty=1.0)
    own = LoopOwnership.fresh(100, 10)
    own.update([(0, 0, 50), (1, 50, 100)])
    s = model.slowdown(mem_kernel(mlp=0.0), own, 0, 0, 100)
    assert 1.0 < s < 2.0


def test_static_repeat_stays_warm():
    """The key property: a schedule that repeats identical ranges pays
    nothing after the first invocation."""
    model = LocalityModel(penalty=0.5)
    own = LoopOwnership.fresh(128, 16)
    ranges = [(t, t * 32, (t + 1) * 32) for t in range(4)]
    own.update(ranges)
    for t, lo, hi in ranges:
        assert model.slowdown(mem_kernel(), own, t, lo, hi) == 1.0


def test_segment_rounding_never_crashes():
    own = LoopOwnership.fresh(7, 100)  # more segments requested than iters
    own.update([(0, 0, 7)])
    assert own.warm_fraction(0, 0, 7) == 1.0
    assert own.warm_fraction(0, 3, 3) == 1.0  # empty range counts warm


# -- prefix-sum warm fraction vs the count definition --------------------------


def count_warm_fraction(own, tid, lo, hi):
    """The count-over-the-owner-slice definition the prefix sums replace."""
    import numpy as np

    if hi <= lo:
        return 1.0
    s0 = lo // own.segment_size
    s1 = (hi - 1) // own.segment_size + 1
    segs = own.owner[s0:s1]
    if len(segs) == 0:
        return 1.0
    return float(np.count_nonzero(segs == tid)) / len(segs)


def _random_ranges(rng, n, k, max_tid):
    out = []
    for _ in range(k):
        lo = int(rng.integers(0, n + 1))
        hi = int(rng.integers(lo, n + 1))  # lo == hi: empty range
        out.append((int(rng.integers(0, max_tid)), lo, hi))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_prefix_warm_fraction_matches_count_definition(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 2500))
    own = LoopOwnership.fresh(n, int(rng.integers(1, 300)))
    max_tid = int(rng.integers(1, 12))

    def check():
        for _ in range(60):
            tid = int(rng.integers(-1, max_tid + 2))
            lo = int(rng.integers(0, n + 3))
            hi = int(rng.integers(0, n + 3))
            assert own.warm_fraction(tid, lo, hi) == count_warm_fraction(
                own, tid, lo, hi
            ), (tid, lo, hi)
        # The column variant (non-empty, in-range ranges) is the same
        # float, element for element.
        los = rng.integers(0, n, size=40)
        his = np.minimum(los + rng.integers(1, n + 1, size=40), n)
        for tid in range(max_tid):
            col = own.warm_fractions(tid, los, his)
            assert col.tolist() == [
                count_warm_fraction(own, tid, int(a), int(b))
                for a, b in zip(los, his)
            ]

    check()  # fresh map: every segment unowned
    for size in (5, 64, 65, 400):  # scalar (<= 64) and bulk update paths
        own.update(_random_ranges(rng, n, size, max_tid))
        check()


def test_slowdowns_column_matches_scalar_slowdown():
    import numpy as np

    model = LocalityModel(penalty=0.35)
    kernel = mem_kernel(mlp=0.3)
    own = model.fresh_ownership(1000)
    rng = np.random.default_rng(5)
    own.update(_random_ranges(rng, 1000, 200, 4))
    assert model.active(own)
    los = np.arange(0, 1000, 7)
    his = np.minimum(los + 7, 1000)
    for tid in range(5):
        assert model.slowdowns(kernel, own, tid, los, his).tolist() == [
            model.slowdown(kernel, own, tid, int(a), int(b))
            for a, b in zip(los, his)
        ]
