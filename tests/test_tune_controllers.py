"""Tests for the online hysteresis controllers and their guardrails."""

import numpy as np
import pytest

from repro import obs
from repro.obs import Registry
from repro.tune import (
    AdmissionController,
    BatchWindowController,
    ControllerSet,
    HysteresisController,
    RepadController,
)


class KnobController(HysteresisController):
    """Minimal concrete controller for exercising the base-class loop."""

    def __init__(self, **kwargs):
        kwargs.setdefault("dwell", 2)
        kwargs.setdefault("min_abs_step", 0.1)
        super().__init__("knob", lo=0.0, hi=10.0, **kwargs)
        self.value = 1.0
        self.signals = []
        self.objectives = []

    def read_signal(self):
        return self.signals.pop(0) if self.signals else None

    def current(self):
        return self.value

    def apply_value(self, value):
        self.value = value

    def propose(self, ewma):
        if ewma > 1.0:
            return self.value * 2.0  # wants to grow fast
        if ewma < -1.0:
            return 0.0
        return None

    def objective(self):
        return self.objectives.pop(0) if self.objectives else None


class TestHysteresisGuardrails:
    def test_bounded_step_and_dwell(self):
        c = KnobController(rel_step=0.25, dwell=3)
        c.signals = [5.0] * 20
        moved_ticks = []
        for tick in range(1, 13):
            if c.tick():
                moved_ticks.append(tick)
        # Each move is clamped to 25% of the current value, never the
        # proposed doubling, and moves are at least `dwell` ticks apart.
        assert all(b - a >= 3 for a, b in zip(moved_ticks, moved_ticks[1:]))
        assert c.value == pytest.approx(1.25 ** len(moved_ticks))

    def test_clamped_to_range(self):
        c = KnobController(rel_step=5.0, dwell=1)
        c.value = 8.0
        c.signals = [5.0] * 10
        for _ in range(10):
            c.tick()
        assert c.value <= c.hi

    def test_rollback_on_regression(self):
        c = KnobController(rel_step=0.25, dwell=1, regression_tol=0.10)
        c.signals = [5.0, 5.0]
        c.objectives = [1.0]  # baseline captured right after the move
        assert c.tick() is True
        assert c.value == pytest.approx(1.25)
        # Next tick: objective regressed > 10% above baseline -> revert.
        c.objectives = [1.5]
        assert c.tick() is True
        assert c.value == pytest.approx(1.0)
        assert c.stats()["rollbacks"] == 1
        assert c.stats()["frozen"] is True

    def test_recovery_notification_freezes(self):
        c = KnobController(dwell=2)
        c.signals = [5.0] * 10
        c.notify_recovery()  # watchdog wins: no adaptation for 2*dwell ticks
        assert not any([c.tick() for _ in range(3)])
        c.signals = [5.0] * 10
        assert any([c.tick() for _ in range(4)])

    def test_adaptations_visible_in_registry_and_trace(self):
        registry = Registry()
        c = KnobController(dwell=1).bind(registry)
        tracer = obs.get_tracer()
        tracer.clear()
        obs.enable()
        try:
            c.signals = [5.0, 5.0]
            c.tick(), c.tick()
        finally:
            obs.disable()
        snap = registry.snapshot()
        assert snap["counters"]["tune.adaptations{controller=knob}"] >= 1
        assert snap["gauges"]["tune.value{controller=knob}"] == c.value
        assert "tune.adapt" in tracer.phase_totals()
        tracer.clear()

    def test_stats_shape(self):
        stats = KnobController().stats()
        assert set(stats) >= {
            "name",
            "value",
            "ewma",
            "ticks",
            "adaptations",
            "rollbacks",
            "frozen",
        }

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            KnobController(dwell=0)
        with pytest.raises(ValueError):
            KnobController(alpha=0.0)
        with pytest.raises(ValueError):
            HysteresisController("bad", lo=2.0, hi=1.0)


class FakeBatcher:
    def __init__(self):
        self.max_batch = 8
        self.max_wait = 2e-3
        self.n_batches = 0
        self.n_coalesced = 0


class FakeServer:
    def __init__(self):
        self.batcher = FakeBatcher()
        self.max_queue = 64
        self.metrics = Registry()


class TestBatchWindowController:
    def test_shrinks_on_empty_batches(self):
        server = FakeServer()
        c = BatchWindowController(server, dwell=1).bind(server.metrics)
        for _ in range(6):
            server.batcher.n_batches += 4
            server.batcher.n_coalesced += 4  # occupancy 1.0 < low_occ
            c.tick()
        assert server.batcher.max_wait < 2e-3

    def test_grows_on_full_batches(self):
        server = FakeServer()
        c = BatchWindowController(server, dwell=1).bind(server.metrics)
        for _ in range(6):
            server.batcher.n_batches += 4
            server.batcher.n_coalesced += 4 * 8  # occupancy = max_batch
            c.tick()
        assert server.batcher.max_wait > 2e-3

    def test_holds_in_the_healthy_band(self):
        server = FakeServer()
        c = BatchWindowController(server, dwell=1).bind(server.metrics)
        for _ in range(6):
            server.batcher.n_batches += 4
            server.batcher.n_coalesced += 4 * 4  # mid occupancy
            assert c.tick() is False
        assert server.batcher.max_wait == 2e-3


class TestAdmissionController:
    def test_grows_under_shedding_with_healthy_waits(self):
        server = FakeServer()
        shed = server.metrics.counter("requests_shed")
        c = AdmissionController(server, dwell=1).bind(server.metrics)
        for _ in range(4):
            shed.inc(5)
            c.tick()
        assert server.max_queue > 64
        assert isinstance(server.max_queue, int)

    def test_shrinks_when_waits_blow_the_budget(self):
        server = FakeServer()
        wait = server.metrics.histogram("queue_wait_s")
        for _ in range(50):
            wait.observe(1.0)  # p99 far above the 0.25 s budget
        c = AdmissionController(server, dwell=1).bind(server.metrics)
        for _ in range(4):
            c.tick()
        assert server.max_queue < 64


class TestRepadController:
    def _engine(self, padding=0.05):
        from repro.md import Cell, System
        from repro.models import LennardJones

        rng = np.random.default_rng(0)
        system = System(
            rng.uniform(0, 9.0, size=(14, 3)),
            np.zeros(14, dtype=int),
            Cell.cubic(9.0),
        )
        potential = LennardJones(epsilon=0.8, sigma=1.1, cutoff=3.0)
        compiled = potential.compile(padding=padding)
        compiled.energy_and_forces(system)  # initial capture
        return compiled, system

    def test_repads_on_capture_spike(self):
        compiled, system = self._engine()
        registry = Registry()
        c = RepadController(compiled, dwell=1, spike=0.2).bind(registry)
        c.tick()  # first tick only establishes the capture baseline
        before = compiled.atom_policy.fraction
        for _ in range(6):
            compiled.invalidate()
            compiled.energy_and_forces(system)  # force a recapture
            c.tick()
        assert compiled.atom_policy.fraction > before
        snap = registry.snapshot()
        assert snap["counters"]["tune.adaptations{controller=repad}"] >= 1

    def test_quiet_engine_is_left_alone(self):
        compiled, system = self._engine()
        c = RepadController(compiled, dwell=1).bind(Registry())
        before = compiled.atom_policy.fraction
        for _ in range(6):
            compiled.energy_and_forces(system)  # pure replays
            c.tick()
        assert compiled.atom_policy.fraction == before

    def test_lifts_exact_fit_engine_onto_ladder(self):
        compiled, system = self._engine(padding=None)  # exact-fit buffers
        c = RepadController(compiled, dwell=1, spike=0.2).bind(Registry())
        c.tick()
        for _ in range(6):
            compiled.invalidate()
            compiled.energy_and_forces(system)
            c.tick()
        assert compiled.atom_policy.fraction >= c.lo


class TestControllerSet:
    def test_tick_counts_moves_and_stats(self):
        a, b = KnobController(dwell=1), KnobController(dwell=1)
        cs = ControllerSet([a, b]).bind(Registry())
        assert len(cs) == 2
        a.signals = [5.0]
        b.signals = [0.0]
        assert cs.tick() == 1
        assert [s["name"] for s in cs.stats()] == ["knob", "knob"]

    def test_notify_recovery_fans_out(self):
        a, b = KnobController(dwell=1), KnobController(dwell=1)
        cs = ControllerSet([a, b])
        cs.notify_recovery()
        a.signals = b.signals = [5.0] * 4
        assert cs.tick() == 0  # both frozen


class TestOffByDefault:
    def test_simulation_and_server_have_no_controllers(self):
        from repro.config import EXAMPLE_CONFIG, build_simulation
        from repro.models import LennardJones
        from repro.serve import ForceServer

        sim = build_simulation(
            {k: v for k, v in EXAMPLE_CONFIG.items() if k != "output"}
        )
        assert sim.controllers is None
        with ForceServer(LennardJones(cutoff=3.0), n_workers=1) as server:
            assert server.controllers is None

    def test_simulation_recovery_reaches_controllers(self):
        from repro.config import build_simulation

        cfg = {
            "system": {"kind": "water", "n_grid": 2, "seed": 0},
            "potential": {"kind": "lennard_jones", "cutoff": 2.5},
            "md": {"steps": 2, "dt": 0.5, "seed": 0},
        }
        sim = build_simulation(cfg)
        c = KnobController(dwell=1)
        sim.controllers = ControllerSet([c]).bind(sim.obs)
        sim._pe = 0.0
        sim._forces = np.zeros((sim.system.n_atoms, 3))
        state = sim.get_state()

        class FailingWatchdog:
            last_error = "synthetic divergence"

            def check(self, pe, forces, step):
                return False

            def reset_history(self):
                pass

            def on_recovered(self):
                pass

        class FakeManager:
            def load_latest(self):
                return 0, state

        sim.watchdog = FailingWatchdog()
        assert sim._check_health(FakeManager()) is False
        assert c.stats()["frozen"] is True
