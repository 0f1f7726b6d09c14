"""Property tests for the serving primitives the tuner searches over.

The offline serve tuner (``repro.tune``) runs the real server stages
inline, so the plan buckets and batches a trial records — and so its
determinism — rest on algebraic properties of the :class:`SizeClasses`
ladders and the :class:`MicroBatcher`, pinned here with hypothesis rather
than example tables.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.batching import ForceRequest, MicroBatcher
from repro.serve.plancache import SizeClasses

ladders = st.builds(
    SizeClasses,
    floor=st.integers(min_value=1, max_value=4096),
    growth=st.floats(min_value=1.01, max_value=4.0, allow_nan=False),
)


class TestSizeClassesProperties:
    @given(ladders, st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200)
    def test_round_up_covers_request(self, ladder, n):
        assert ladder.round_up(n) >= n

    @given(
        ladders,
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=200)
    def test_round_up_monotone(self, ladder, a, b):
        lo, hi = sorted((a, b))
        assert ladder.round_up(lo) <= ladder.round_up(hi)

    @given(ladders, st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200)
    def test_round_up_idempotent_on_ladder_members(self, ladder, n):
        # round_up maps onto the ladder, and ladder members are fixed
        # points — the property that makes bucket keys stable.
        cls = ladder.round_up(n)
        assert ladder.round_up(cls) == cls

    @given(st.integers(min_value=1, max_value=1000))
    @settings(max_examples=50)
    def test_ladder_classes_strictly_increase(self, floor):
        ladder = SizeClasses(floor, 1.5)
        c = floor
        for _ in range(20):
            nxt = ladder.round_up(c + 1)
            assert nxt > c
            c = nxt


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _request(k):
    class _Sized:
        n_atoms = 4

    return ForceRequest(system=_Sized(), model="m", future=None)


class TestMicroBatcherWindowProperties:
    @given(
        gap=st.floats(min_value=1e-6, max_value=1e-2, allow_nan=False),
        max_batch=st.integers(min_value=2, max_value=64),
        max_wait=st.floats(min_value=1e-5, max_value=1e-1, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_ewma_window_converges_on_constant_gaps(
        self, gap, max_batch, max_wait
    ):
        """Constant arrival gap g => window -> min(max_wait, g*(max_batch-1)).

        The EWMA (coefficient 0.2) of a constant series converges to that
        constant, so after enough arrivals the adaptive window must sit at
        the documented effective-window formula within a tight tolerance.
        """
        clock = FakeClock()
        batcher = MicroBatcher(
            max_batch=max_batch,
            max_wait=max_wait,
            adaptive=True,
            clock=clock,
        )
        for k in range(200):
            batcher.put(_request(k))
            # Keep the queue drained so batches never clamp arrivals.
            while batcher.get_batch(timeout=0.0) is not None:
                pass
            clock.t += gap
        expected = min(max_wait, gap * (max_batch - 1))
        assert abs(batcher.window() - expected) <= 1e-9 + 0.05 * expected

    @given(
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=1e-2, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        max_wait=st.floats(min_value=1e-5, max_value=1e-2, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_window_never_exceeds_max_wait(self, gaps, max_wait):
        clock = FakeClock()
        batcher = MicroBatcher(
            max_batch=8, max_wait=max_wait, adaptive=True, clock=clock
        )
        for k, gap in enumerate(gaps):
            clock.t += gap
            batcher.put(_request(k))
            assert 0.0 <= batcher.window() <= max_wait
            while batcher.get_batch(timeout=0.0) is not None:
                pass

    def test_non_adaptive_window_is_max_wait(self):
        batcher = MicroBatcher(max_batch=8, max_wait=3e-3, adaptive=False)
        assert batcher.window() == 3e-3
        single = MicroBatcher(max_batch=1, max_wait=3e-3, adaptive=True)
        assert single.window() == 0.0
