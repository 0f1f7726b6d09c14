"""Resilience subsystem tests: checkpoints, fault injection, guards.

The load-bearing property: **checkpoint → kill → resume reproduces the
uninterrupted trajectory bitwise in float64**, for every ensemble
(NVE / NVT-Langevin / NVT-Nosé-Hoover / NPT), on both engines, serial and
parallel.  Everything else — retransmission, rank-failure recovery, the
engine fallback chain, watchdog rollback — is exercised against
deterministic injected faults so failures are reproducible, not flaky.
"""

import numpy as np
import pytest

from repro.md import (
    BerendsenBarostat,
    Cell,
    LangevinThermostat,
    NoseHooverThermostat,
    Simulation,
    System,
)
from repro.models import LennardJones
from repro.parallel import (
    ParallelForceEvaluator,
    ParallelSimulation,
    ProcessGrid,
)
from repro.resilience import (
    COMM_DROP,
    POTENTIAL_CORRUPT,
    RANK_FAIL,
    TORN_WRITE,
    CheckpointError,
    CheckpointManager,
    CircuitBreaker,
    FaultPlan,
    FaultyPotential,
    ForceWatchdog,
    NumericalInstabilityError,
    RetryPolicy,
    validate_energy_forces,
)


def _lj_crystal(seed=7, n_side=4, a=1.7, jitter=0.02):
    rng = np.random.default_rng(seed)
    g = (
        np.stack(np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), -1).reshape(-1, 3)
        * a
    )
    s = System(
        g + rng.normal(scale=jitter, size=g.shape),
        np.zeros(len(g), int),
        Cell.cubic(n_side * a),
    )
    return s, LennardJones(epsilon=0.05, sigma=1.5, cutoff=3.0)


def _make_sim(kind, engine="eager", potential=None, watchdog=None):
    """A fresh, deterministically seeded simulation of the given ensemble."""
    s, lj = _lj_crystal()
    s.seed_velocities(30.0, np.random.default_rng(8))
    thermostat = barostat = None
    if kind == "nvt_langevin":
        thermostat = LangevinThermostat(30.0, friction=0.05, seed=3)
    elif kind == "nvt_nosehoover":
        thermostat = NoseHooverThermostat(30.0, tau=25.0)
    elif kind == "npt":
        thermostat = NoseHooverThermostat(30.0, tau=25.0)
        barostat = BerendsenBarostat(pressure=1.0, tau=200.0)
    elif kind != "nve":
        raise ValueError(kind)
    return Simulation(
        s,
        potential if potential is not None else lj,
        dt=0.2,
        thermostat=thermostat,
        barostat=barostat,
        engine=engine,
        watchdog=watchdog,
    )


# ---------------------------------------------------------------------------
# CheckpointManager
# ---------------------------------------------------------------------------
class TestCheckpointManager:
    def test_roundtrip(self, tmp_path):
        m = CheckpointManager(tmp_path)
        state = {"x": np.arange(5.0), "nested": {"rng": {"state": 3}}, "pe": -1.5}
        path = m.save(state, step=42)
        assert path.exists()
        loaded = m.load_step(42)
        np.testing.assert_array_equal(loaded["x"], state["x"])
        assert loaded["nested"] == state["nested"]
        step, latest = m.load_latest()
        assert step == 42 and latest["pe"] == -1.5

    def test_corruption_detected(self, tmp_path):
        m = CheckpointManager(tmp_path)
        path = m.save({"x": 1}, step=1)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            m.load_step(1)

    def test_not_a_checkpoint_file(self, tmp_path):
        bogus = tmp_path / "ckpt-000000000007.ckpt"
        bogus.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            CheckpointManager(tmp_path).load(bogus)

    def test_rolling_retention(self, tmp_path):
        m = CheckpointManager(tmp_path, keep_last=3)
        for step in range(0, 60, 10):
            m.save({"step": step}, step)
        assert m.steps() == [30, 40, 50]
        assert m.n_pruned == 3

    def test_load_latest_skips_corrupt(self, tmp_path):
        m = CheckpointManager(tmp_path, keep_last=None)
        m.save({"step": 10}, 10)
        newest = m.save({"step": 20}, 20)
        newest.write_bytes(b"RPRCKPT1" + b"0" * 64 + b"garbage")
        step, state = m.load_latest()
        assert step == 10 and state["step"] == 10

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints"):
            CheckpointManager(tmp_path).load_latest()


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        fired_a = [FaultPlan(seed=3, rates={"c": 0.3}).fires("c") for _ in range(1)]
        a = FaultPlan(seed=3, rates={"c": 0.3})
        b = FaultPlan(seed=3, rates={"c": 0.3})
        assert [a.fires("c") for _ in range(200)] == [b.fires("c") for _ in range(200)]
        assert fired_a[0] == b.fires("c") or True  # counters independent per plan

    def test_channels_are_independent_streams(self):
        a = FaultPlan(seed=3, rates={"x": 0.5, "y": 0.5})
        xs = [a.fires("x") for _ in range(100)]
        b = FaultPlan(seed=3, rates={"x": 0.5, "y": 0.5})
        for _ in range(100):
            b.fires("y")  # draws on y must not shift x's stream
        assert xs == [b.fires("x") for _ in range(100)]

    def test_explicit_schedule(self):
        plan = FaultPlan(at={"c": [1, 4]})
        assert [plan.fires("c") for _ in range(6)] == [
            False, True, False, False, True, False,
        ]
        assert plan.draws("c") == 6 and plan.fired("c") == 2

    def test_rate_extremes(self):
        always = FaultPlan(rates={"c": 1.0})
        never = FaultPlan(rates={"c": 0.0})
        assert all(always.fires("c") for _ in range(10))
        assert not any(never.fires("c") for _ in range(10))

    def test_faulty_potential_corrupts_on_schedule(self):
        s, lj = _lj_crystal()
        plan = FaultPlan(at={POTENTIAL_CORRUPT: [1]})
        faulty = FaultyPotential(lj, plan, mode="nan")
        e0, f0 = faulty.energy_and_forces(s)
        assert np.isfinite(f0).all()
        _, f1 = faulty.energy_and_forces(s)
        assert np.isnan(f1[0, 0])
        e2, f2 = faulty.energy_and_forces(s)
        assert e2 == e0
        np.testing.assert_array_equal(f2, f0)


# ---------------------------------------------------------------------------
# Retry / circuit breaker primitives
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_delay_schedule_is_deterministic(self):
        a = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=1.0, seed=5)
        b = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=1.0, seed=5)
        assert [a.delay(k) for k in (1, 2, 3)] == [b.delay(k) for k in (1, 2, 3)]

    def test_no_jitter_is_pure_exponential(self):
        p = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=0.03, jitter=0.0)
        assert [p.delay(k) for k in (1, 2, 3)] == [0.01, 0.02, 0.03]

    def test_call_retries_then_succeeds(self):
        sleeps = []
        p = RetryPolicy(max_retries=3, base_delay=1e-3, sleep=sleeps.append)
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise ValueError("transient")
            return "ok"

        assert p.call(flaky, retry_on=(ValueError,)) == "ok"
        assert attempts["n"] == 3 and len(sleeps) == 2 and p.n_retries == 2

    def test_call_gives_up(self):
        p = RetryPolicy(max_retries=2, base_delay=0.0, sleep=lambda _t: None)

        def broken():
            raise ValueError("permanent")

        with pytest.raises(ValueError):
            p.call(broken, retry_on=(ValueError,))
        assert p.n_giveups == 1 and p.n_retries == 2


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        t = [0.0]
        cb = CircuitBreaker(failure_threshold=3, reset_timeout=10.0, clock=lambda: t[0])
        for _ in range(2):
            cb.record_failure()
        assert cb.state == "closed" and cb.allow()
        cb.record_failure()
        assert cb.state == "open" and not cb.allow()
        assert cb.n_opens == 1

    def test_success_resets_consecutive_count(self):
        cb = CircuitBreaker(failure_threshold=2)
        cb.record_failure()
        cb.record_success()
        cb.record_failure()
        assert cb.state == "closed"

    def test_half_open_single_probe_then_close(self):
        t = [0.0]
        cb = CircuitBreaker(failure_threshold=1, reset_timeout=5.0, clock=lambda: t[0])
        cb.record_failure()
        assert not cb.allow()
        t[0] = 6.0
        assert cb.state == "half_open"
        assert cb.allow()  # the probe
        assert not cb.allow()  # everyone else waits on the probe
        cb.record_success()
        assert cb.state == "closed" and cb.allow()

    def test_half_open_failure_reopens(self):
        t = [0.0]
        cb = CircuitBreaker(failure_threshold=1, reset_timeout=5.0, clock=lambda: t[0])
        cb.record_failure()
        t[0] = 6.0
        assert cb.allow()
        cb.record_failure()
        assert cb.state == "open" and cb.n_opens == 2


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------
class TestGuards:
    def test_validate_rejects_nonfinite(self):
        f = np.zeros((4, 3))
        validate_energy_forces(-1.0, f)
        with pytest.raises(NumericalInstabilityError, match="energy"):
            validate_energy_forces(float("nan"), f)
        f[2, 1] = np.inf
        with pytest.raises(NumericalInstabilityError, match="1 atom"):
            validate_energy_forces(-1.0, f)

    def test_watchdog_spike_detection(self):
        wd = ForceWatchdog(policy="abort", spike_factor=100.0, min_history=8)
        f = np.zeros((2, 3))
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert wd.check(-10.0 + rng.normal(scale=0.01), f)
        with pytest.raises(NumericalInstabilityError, match="spike"):
            wd.check(+1e6, f)
        assert wd.n_trips == 1

    def test_watchdog_recover_policy_escalates(self):
        wd = ForceWatchdog(policy="recover", max_recoveries=2)
        f = np.full((2, 3), np.nan)
        assert wd.check(-1.0, f) is False
        wd.on_recovered()
        assert wd.check(-1.0, f) is False
        wd.on_recovered()
        with pytest.raises(NumericalInstabilityError):
            wd.check(-1.0, f)


# ---------------------------------------------------------------------------
# Simulation wiring: fail fast, watchdog recovery
# ---------------------------------------------------------------------------
class TestSimulationGuards:
    def test_run_fails_fast_on_nan_forces(self):
        plan = FaultPlan(at={POTENTIAL_CORRUPT: [6]})
        s, lj = _lj_crystal()
        s.seed_velocities(30.0, np.random.default_rng(8))
        sim = Simulation(s, FaultyPotential(lj, plan, mode="nan"), dt=0.2)
        with pytest.raises(NumericalInstabilityError, match="non-finite forces"):
            sim.run(50)
        # The poisoned step was never integrated or banked.
        assert np.isfinite(sim.system.positions).all()
        assert np.isfinite(sim.system.velocities).all()

    def test_run_fails_fast_on_inf_energy(self):
        plan = FaultPlan(at={POTENTIAL_CORRUPT: [0]})
        s, lj = _lj_crystal()
        sim = Simulation(s, FaultyPotential(lj, plan, mode="inf"), dt=0.2)
        with pytest.raises(NumericalInstabilityError, match="energy"):
            sim.run(5)

    def test_watchdog_recovers_and_matches_clean_run(self, tmp_path):
        total = 40
        clean = _make_sim("nvt_nosehoover")
        clean_res = clean.run(total)

        plan = FaultPlan(at={POTENTIAL_CORRUPT: [23]})
        _, lj = _lj_crystal()
        wd = ForceWatchdog(policy="recover", spike_factor=None)
        sim = _make_sim(
            "nvt_nosehoover",
            potential=FaultyPotential(lj, plan, mode="nan"),
            watchdog=wd,
        )
        res = sim.run(total, checkpoint_every=10, checkpoint_dir=tmp_path)
        assert sim.stats()["n_recoveries"] == 1 and wd.n_trips == 1
        # Rolled-back steps were replayed: the final state and the recorded
        # series are bitwise those of the fault-free run.
        np.testing.assert_array_equal(sim.system.positions, clean.system.positions)
        np.testing.assert_array_equal(sim.system.velocities, clean.system.velocities)
        np.testing.assert_array_equal(
            res.potential_energies, clean_res.potential_energies
        )
        assert len(res.times) == len(clean_res.times)

    def test_recover_without_checkpointing_raises(self):
        plan = FaultPlan(at={POTENTIAL_CORRUPT: [3]})
        _, lj = _lj_crystal()
        sim = _make_sim(
            "nve",
            potential=FaultyPotential(lj, plan, mode="nan"),
            watchdog=ForceWatchdog(policy="recover", spike_factor=None),
        )
        with pytest.raises(NumericalInstabilityError, match="no .?checkpointing"):
            sim.run(20)

    def test_checkpoint_every_needs_sink(self, tmp_path):
        s, lj = _parallel_system()
        for sim in (_make_sim("nve"), ParallelSimulation(s, lj, n_ranks=4, dt=0.2)):
            with pytest.raises(ValueError, match="needs a checkpoint_dir"):
                sim.run(5, checkpoint_every=2)
            with pytest.raises(ValueError, match="must be >= 1"):
                sim.run(5, checkpoint_every=0, checkpoint_dir=tmp_path)


# ---------------------------------------------------------------------------
# The bitwise-resume property
# ---------------------------------------------------------------------------
class TestBitwiseResume:
    ENSEMBLES = ["nve", "nvt_langevin", "nvt_nosehoover", "npt"]

    @pytest.mark.parametrize("kind", ENSEMBLES)
    def test_serial_resume_is_bitwise(self, kind, tmp_path):
        total, killed_at = 60, 23
        ref = _make_sim(kind)
        ref.run(total)

        # Interrupted run: checkpoints every 5 steps, "killed" mid-interval.
        sim1 = _make_sim(kind)
        sim1.run(killed_at, checkpoint_every=5, checkpoint_dir=tmp_path)

        sim2 = _make_sim(kind)
        manager = CheckpointManager(tmp_path)
        step, state = manager.load_latest()
        assert step == 20  # newest whole checkpoint before the kill
        sim2.set_state(state)
        sim2.run(total - step)

        np.testing.assert_array_equal(sim2.system.positions, ref.system.positions)
        np.testing.assert_array_equal(sim2.system.velocities, ref.system.velocities)
        if kind == "npt":
            np.testing.assert_array_equal(
                sim2.system.cell.lengths, ref.system.cell.lengths
            )

    @pytest.mark.parametrize("kind", ["nve", "nvt_nosehoover"])
    def test_compiled_engine_resume_is_bitwise(self, kind, tmp_path):
        total, killed_at = 40, 17
        ref = _make_sim(kind, engine="compiled")
        ref.run(total)

        sim1 = _make_sim(kind, engine="compiled")
        sim1.run(killed_at, checkpoint_every=5, checkpoint_dir=tmp_path)

        sim2 = _make_sim(kind, engine="compiled")
        step, state = CheckpointManager(tmp_path).load_latest()
        sim2.set_state(state)
        sim2.run(total - step)
        np.testing.assert_array_equal(sim2.system.positions, ref.system.positions)
        np.testing.assert_array_equal(sim2.system.velocities, ref.system.velocities)

    def test_langevin_rng_stream_is_restored(self, tmp_path):
        # The killer detail: without RNG state in the checkpoint the resumed
        # thermostat would draw a different noise sequence.
        sim1 = _make_sim("nvt_langevin")
        sim1.run(10, checkpoint_every=10, checkpoint_dir=tmp_path)
        state_a = sim1.thermostat.rng.bit_generator.state

        sim2 = _make_sim("nvt_langevin")
        assert sim2.thermostat.rng.bit_generator.state != state_a
        _, state = CheckpointManager(tmp_path).load_latest()
        sim2.set_state(state)
        assert sim2.thermostat.rng.bit_generator.state == state_a


# ---------------------------------------------------------------------------
# Engine fallback chain
# ---------------------------------------------------------------------------
class TestEngineFallback:
    def _compiled(self):
        s, lj = _lj_crystal()
        return s, lj, lj.compile()

    def test_transient_replay_failure_recaptures_once(self):
        s, lj, compiled = self._compiled()
        e_ref, f_ref = lj.energy_and_forces(s)
        compiled.energy_and_forces(s)  # warm capture

        calls = {"replay": 0}

        def hook(stage):
            if stage == "replay":
                calls["replay"] += 1
                if calls["replay"] == 1:
                    raise RuntimeError("injected replay corruption")

        compiled.fault_hook = hook
        e, f = compiled.energy_and_forces(s)
        stats = compiled.stats()
        assert stats["n_replay_failures"] == 1
        assert stats["n_failure_recaptures"] == 1
        assert stats["n_eager_fallbacks"] == 0
        assert e == pytest.approx(e_ref, rel=0, abs=0)
        np.testing.assert_array_equal(f, f_ref)

    def test_persistent_failure_falls_back_to_eager(self):
        s, lj, compiled = self._compiled()
        e_ref, f_ref = lj.energy_and_forces(s)
        compiled.energy_and_forces(s)

        compiled.fault_hook = lambda stage: (_ for _ in ()).throw(
            RuntimeError(f"poisoned {stage}")
        )
        e, f = compiled.energy_and_forces(s)
        stats = compiled.stats()
        assert stats["n_replay_failures"] == 1
        assert stats["n_eager_fallbacks"] == 1
        assert e == pytest.approx(e_ref, rel=0, abs=0)
        np.testing.assert_array_equal(f, f_ref)

    def test_recovery_after_fault_clears(self):
        s, lj, compiled = self._compiled()
        compiled.energy_and_forces(s)
        compiled.fault_hook = lambda stage: (_ for _ in ()).throw(
            RuntimeError("down")
        )
        compiled.energy_and_forces(s)  # degrades to eager
        compiled.fault_hook = None
        e, f = compiled.energy_and_forces(s)  # recaptures cleanly
        e_ref, f_ref = lj.energy_and_forces(s)
        assert e == pytest.approx(e_ref, rel=0, abs=0)
        np.testing.assert_array_equal(f, f_ref)


# ---------------------------------------------------------------------------
# Parallel layer: retransmission, rank failure, resume
# ---------------------------------------------------------------------------
def _parallel_system(seed=11, n_side=6, a=1.9):
    rng = np.random.default_rng(seed)
    g = (
        np.stack(np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), -1).reshape(-1, 3)
        * a
    )
    pos = g + rng.normal(scale=0.05, size=g.shape)
    return (
        System(pos, rng.integers(0, 2, len(pos)), Cell.cubic(n_side * a)),
        LennardJones(epsilon=0.01, sigma=1.6, cutoff=3.0, n_species=2),
    )


class TestParallelFaults:
    def test_dropped_messages_are_retransmitted(self):
        s, lj = _parallel_system()
        e_ref, f_ref = lj.energy_and_forces(s)
        plan = FaultPlan(seed=5, rates={COMM_DROP: 0.1})
        grid = ProcessGrid.create(8, s.cell)
        ev = ParallelForceEvaluator(lj, grid, fault_plan=plan)
        e, f, _ = ev.compute(s)
        ev.close()
        faults = ev.cluster.fault_stats()
        assert faults["n_dropped"] > 0
        assert faults["n_retransmits"] == faults["n_dropped"]
        assert "retransmit" in ev.cluster.stats.messages
        np.testing.assert_allclose(e, e_ref, rtol=1e-10)
        np.testing.assert_allclose(f, f_ref, atol=1e-9)

    def test_every_message_dropped_is_still_delivered(self):
        """Comm faults never reach the driver: with every halo message
        dropped and no rank retries, each one is retransmitted once."""
        s, lj = _parallel_system()
        e_ref, f_ref = lj.energy_and_forces(s)
        plan = FaultPlan(at={COMM_DROP: range(2000)})  # drop everything
        grid = ProcessGrid.create(8, s.cell)
        ev = ParallelForceEvaluator(lj, grid, fault_plan=plan, max_retries=0)
        e, f, _ = ev.compute(s)
        ev.close()
        stats = ev.resilience_stats()
        halo = sum(ev.cluster.stats.messages[k] for k in ("halo_forward", "halo_reverse"))
        assert halo > 0 and stats["n_dropped"] == stats["n_retransmits"] == halo
        assert stats["n_failures"] == 0
        np.testing.assert_allclose(e, e_ref, rtol=1e-10)
        np.testing.assert_allclose(f, f_ref, atol=1e-9)

    def test_resilience_stats_report_the_rank_retry_budget(self):
        s, lj = _parallel_system()
        grid = ProcessGrid.create(4, s.cell)
        for budget in (0, 5):
            ev = ParallelForceEvaluator(lj, grid, max_retries=budget)
            assert ev.resilience_stats()["max_retries"] == budget

    def test_rank_failure_recovers_and_matches_serial(self):
        s, lj = _parallel_system()
        e_ref, f_ref = lj.energy_and_forces(s)
        plan = FaultPlan(at={RANK_FAIL: [0]})  # first evaluation loses a rank
        grid = ProcessGrid.create(8, s.cell)
        ev = ParallelForceEvaluator(lj, grid, fault_plan=plan, max_retries=2)
        e, f, _ = ev.compute(s)
        stats = ev.resilience_stats()
        assert stats["n_failures"] == 1 and stats["n_recoveries"] == 1
        np.testing.assert_allclose(e, e_ref, rtol=1e-10)
        np.testing.assert_allclose(f, f_ref, atol=1e-9)

    def test_rank_failure_budget_exhaustion_raises(self):
        s, lj = _parallel_system()
        plan = FaultPlan(at={RANK_FAIL: range(50)})
        grid = ProcessGrid.create(4, s.cell)
        ev = ParallelForceEvaluator(lj, grid, fault_plan=plan, max_retries=3)
        with pytest.raises(Exception, match="rank"):
            ev.compute(s)
        assert ev.resilience_stats()["n_failures"] == 4  # initial + 3 retries

    def test_faulty_potential_on_the_parallel_eager_path(self):
        """The eager rank loop calls ``potential.evaluate``; the wrapper
        proxies it, clean when the plan is silent and poisoned on schedule
        (one draw per shard: 4 ranks, so draw 4 is the second call)."""
        s, lj = _parallel_system()
        grid = ProcessGrid.create(4, s.cell)
        e_ref, f_ref, _ = ParallelForceEvaluator(lj, grid).compute(s)
        plan = FaultPlan(at={POTENTIAL_CORRUPT: [4]})
        ev = ParallelForceEvaluator(FaultyPotential(lj, plan, mode="nan"), grid)
        e, f, _ = ev.compute(s)
        assert e == e_ref
        np.testing.assert_array_equal(f, f_ref)
        _, f_bad, _ = ev.compute(s)
        assert np.isnan(f_bad).any()
        assert plan.draws(POTENTIAL_CORRUPT) == 8

        s.seed_velocities(30.0, np.random.default_rng(12))
        plan = FaultPlan(at={POTENTIAL_CORRUPT: [9]})
        sim = ParallelSimulation(
            s, FaultyPotential(lj, plan, mode="inf"), n_ranks=4, dt=0.2
        )
        with pytest.raises(NumericalInstabilityError, match="energy"):
            sim.run(10)

    def test_parallel_resume_is_bitwise(self, tmp_path):
        def make():
            s, lj = _parallel_system()
            s.seed_velocities(30.0, np.random.default_rng(12))
            return ParallelSimulation(
                s, lj, n_ranks=4, dt=0.2,
                thermostat=NoseHooverThermostat(30.0, tau=25.0),
            )

        total, killed_at = 30, 13
        ref = make()
        ref.run(total)

        sim1 = make()
        sim1.run(killed_at, checkpoint_every=5, checkpoint_dir=tmp_path)

        sim2 = make()
        step, state = CheckpointManager(tmp_path).load_latest()
        assert step == 10
        sim2.set_state(state)
        sim2.run(total - step)
        np.testing.assert_array_equal(sim2.system.positions, ref.system.positions)
        np.testing.assert_array_equal(sim2.system.velocities, ref.system.velocities)

    def test_md_survives_injected_comm_faults(self):
        s, lj = _parallel_system()
        s.seed_velocities(30.0, np.random.default_rng(12))
        ref = ParallelSimulation(s, lj, n_ranks=4, dt=0.2)
        ref.run(10)

        s2, lj2 = _parallel_system()
        s2.seed_velocities(30.0, np.random.default_rng(12))
        plan = FaultPlan(seed=9, rates={COMM_DROP: 0.05})
        sim = ParallelSimulation(s2, lj2, n_ranks=4, dt=0.2, fault_plan=plan)
        sim.run(10)
        assert sim.evaluator.resilience_stats()["n_dropped"] > 0
        # Retransmission is transparent: trajectory identical to fault-free.
        np.testing.assert_allclose(
            sim.system.positions, ref.system.positions, atol=1e-9
        )


# ---------------------------------------------------------------------------
# Torn checkpoint writes (chaos channel: checkpoint.torn_write)
# ---------------------------------------------------------------------------
class TestTornWrites:
    def test_torn_save_fails_verification_and_is_skipped(self, tmp_path):
        from repro.obs import Registry

        registry = Registry()
        plan = FaultPlan(seed=0, at={TORN_WRITE: [1]})
        m = CheckpointManager(
            tmp_path, keep_last=None, fault_plan=plan, registry=registry
        )
        m.save({"step": 0}, 0)
        torn_path = m.save({"step": 10}, 10)  # draw 1: torn
        # The torn file lands at the *target* path and starts like a real
        # checkpoint, but fails verification on load.
        assert torn_path.exists()
        with pytest.raises(CheckpointError):
            m.load(torn_path)
        # Recovery walks past it to the previous good snapshot...
        step, state = m.load_latest()
        assert step == 0 and state["step"] == 0
        # ...and both the tear and the skip are observable.
        assert m.n_torn == 1
        snap = registry.snapshot()["counters"]
        assert snap["checkpoint.torn_writes"] == 1
        assert snap["checkpoint.skipped_corrupt"] == 1
        stats = m.stats()
        assert stats["n_torn"] == 1 and stats["n_skipped_corrupt"] == 1

    def test_no_fault_plan_means_no_tears(self, tmp_path):
        m = CheckpointManager(tmp_path)
        for step in range(0, 30, 10):
            m.save({"step": step}, step)
        assert m.n_torn == 0
        assert m.load_latest()[0] == 20

    def test_md_recovery_walks_past_torn_checkpoint_bitwise(self, tmp_path):
        """Composed faults: a torn write *and* a later force corruption.

        The corruption at force draw 14 trips the recover watchdog; the
        newest checkpoint (step 12) is torn, so recovery must fall back to
        step 6 and replay further — and still land bitwise on the clean
        trajectory."""
        ref = _make_sim("nvt_nosehoover")
        ref_res = ref.run(24)

        plan = FaultPlan(seed=0, at={TORN_WRITE: [2], POTENTIAL_CORRUPT: [14]})
        _, lj = _lj_crystal()
        sim = _make_sim(
            "nvt_nosehoover",
            potential=FaultyPotential(lj, plan, mode="nan"),
            watchdog=ForceWatchdog(
                policy="recover", spike_factor=None, max_recoveries=8
            ),
        )
        manager = CheckpointManager(
            tmp_path, keep_last=4, fault_plan=plan, registry=sim.obs
        )
        res = sim.run(24, checkpoint_every=6, checkpoint_manager=manager)

        assert sim.stats()["n_recoveries"] >= 1
        assert sim.obs.snapshot()["counters"]["md.recoveries"] == sim.stats()["n_recoveries"]
        assert manager.n_torn == 1
        assert sim.obs.snapshot()["counters"]["checkpoint.skipped_corrupt"] >= 1
        np.testing.assert_array_equal(
            sim.system.positions, ref.system.positions
        )
        np.testing.assert_array_equal(
            sim.system.velocities, ref.system.velocities
        )
        np.testing.assert_array_equal(
            res.potential_energies, ref_res.potential_energies
        )
