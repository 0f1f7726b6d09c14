"""Tests for communication statistics and accounting helpers."""

import pytest

from repro.parallel import CommStats, VirtualCluster
from repro.resilience import COMM_DELAY, COMM_DROP, FaultPlan


class TestCommStats:
    def test_record_and_totals(self):
        s = CommStats()
        s.record("halo", 100)
        s.record("halo", 50)
        s.record("migrate", 10)
        assert s.messages["halo"] == 2
        assert s.bytes["halo"] == 150
        assert s.total_messages() == 3
        assert s.total_bytes() == 160

    def test_reset(self):
        s = CommStats()
        s.record("x", 10)
        s.reset()
        assert s.total_bytes() == 0
        assert s.total_messages() == 0


class TestVirtualClusterOrdering:
    def test_fault_draws_follow_transfer_order(self):
        """The n-th non-local transfer takes the n-th ``comm.drop`` draw,
        whatever its category or peers; self-transfers take none."""
        plan = FaultPlan(at={COMM_DROP: [1, 3]})
        c = VirtualCluster(3, fault_plan=plan)
        for src, dst, cat in [(0, 1, "a"), (1, 1, "a"), (2, 0, "b"),
                              (1, 2, "a"), (0, 0, "b"), (2, 1, "b")]:
            c.transfer(src, dst, cat, 8)
        assert plan.draws(COMM_DROP) == 4
        assert plan.draws(COMM_DELAY) == 2  # the two undropped messages
        assert c.fault_stats()["n_dropped"] == 2
        assert c.stats.messages == {"a": 2, "b": 2, "retransmit": 2}

    def test_needs_at_least_one_rank(self):
        with pytest.raises(ValueError):
            VirtualCluster(0)
