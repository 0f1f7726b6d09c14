"""QoS tests: priority admission, deadlines, shedding, degraded serving.

The QoS layer's contract extends the server's correctly-or-explicitly
guarantee with two new explicit outcomes — ``LoadShed`` (class ``shed``)
and ``DeadlineExceeded`` (class ``deadline``) — and two rules: admission
never sacrifices a stronger class for a weaker one, and a ``DEGRADED``
server still serves each request on the model and engine it asked for.  Determinism trick
throughout: ``start(workers=False)`` opens admission without the worker
pool, so the whole admission sequence is single-threaded and exact.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import load_config
from repro.health import HealthThresholds
from repro.md import Cell, System
from repro.models import LennardJones
from repro.serve import (
    Client,
    DeadlineExceeded,
    ForceServer,
    LoadShed,
    MicroBatcher,
    QoSPolicy,
    ServeError,
    ServerOverloaded,
    ServerStopped,
    ServeResult,
    priority_level,
)
from repro.serve.batching import ForceRequest
from repro.serve.qos import SHED_DEADLINE, SHED_LOAD


def make_system(n=8, seed=0, box=8.0):
    rng = np.random.default_rng(seed)
    return System(
        rng.uniform(0, box, size=(n, 3)),
        rng.integers(0, 2, size=n),
        Cell.cubic(box),
    )


def make_lj():
    return LennardJones(epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)


class CountingLJ(LennardJones):
    """LJ that counts force evaluations — proves shed work never ran.

    The server's eager batch path calls ``atomic_energies`` on the
    concatenated structure (one call per evaluated batch); zero-edge
    structures go through ``energy_and_forces``.  Count both.
    """

    def __init__(self, **kw):
        super().__init__(**kw)
        self.calls = 0

    def energy_and_forces(self, system, nl=None):
        self.calls += 1
        return super().energy_and_forces(system, nl)

    def atomic_energies(self, positions, species, nl):
        self.calls += 1
        return super().atomic_energies(positions, species, nl)


def paused_server(**kw):
    """A server accepting requests with no workers running yet."""
    kw.setdefault("engine", "eager")
    kw.setdefault("n_workers", 1)
    server = ForceServer(kw.pop("potential", make_lj()), start=False, **kw)
    server.start(workers=False)
    return server


#: The default policy with a health machine that steps up on every
#: overloaded tick and never steps back down.
STICKY = QoSPolicy(health=HealthThresholds(dwell_up=1, dwell_down=10**6))


def drive(server, level):
    """Tick ``server.health`` up to severity ``level``, where it sticks."""
    for _ in range(level):
        server.health.tick({"queue_frac": 1.0})
    assert server.health.level == level
    return server


# ---------------------------------------------------------------------------
# policy object
# ---------------------------------------------------------------------------
class TestQoSPolicy:
    def test_weighted_bounds_cap_non_top_classes(self):
        bounds = QoSPolicy().bounds_for(14)  # weights 4/2/1
        assert bounds["interactive"] == 14  # top class: full queue
        assert bounds["batch"] == 4  # round(14 * 2/7)
        assert bounds["background"] == 2  # round(14 * 1/7)

    def test_explicit_bounds_win_and_are_capped(self):
        policy = QoSPolicy(queue_bounds={"background": 100, "batch": 3})
        bounds = policy.bounds_for(10)
        assert bounds == {"interactive": 10, "batch": 3, "background": 10}

    def test_every_class_gets_at_least_one_slot(self):
        bounds = QoSPolicy().bounds_for(2)
        assert all(b >= 1 for b in bounds.values())

    def test_default_deadlines(self):
        policy = QoSPolicy(deadlines={"interactive": 0.25, "batch": None})
        assert policy.default_deadline("interactive") == 0.25
        assert policy.default_deadline("batch") is None
        assert policy.default_deadline("background") is None
        assert QoSPolicy().default_deadline("interactive") is None

    @pytest.mark.parametrize(
        "kw",
        [
            {"weights": {"interactive": 1, "batch": 1}},  # missing class
            {"weights": {"interactive": 0, "batch": 1, "background": 1}},
            {"weights": {"vip": 1, "batch": 1, "background": 1}},
            {"queue_bounds": {"batch": 0}},
            {"queue_bounds": {"nope": 3}},
            {"shed_admit_priority": "urgent"},
            {"default_priority": "urgent"},
            {"deadlines": {"batch": -1.0}},
            {"deadlines": {"nope": 1.0}},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            QoSPolicy(**kw)

    def test_priority_level_rejects_unknown(self):
        assert priority_level("interactive") == 0
        with pytest.raises(ValueError, match="unknown priority"):
            priority_level("urgent")
        with pytest.raises(ValueError):
            priority_level(None)

    def test_config_round_trip_and_unknown_key(self):
        def load_qos(qos):
            return load_config({"serve": {"qos": qos}}).serve.qos

        policy = load_qos(
            {
                "weights": {"interactive": 4, "batch": 2, "background": 1},
                "queue_bounds": {"background": 2},
                "deadlines": {"interactive": 0.5},
                "default_priority": "interactive",
            }
        )
        assert policy.default_priority == "interactive"
        assert policy.bounds_for(8)["background"] == 2
        with pytest.raises(ValueError, match="unknown serve.qos config"):
            load_qos({"wieghts": {}})


class TestServeResult:
    def test_unpacks_like_the_legacy_tuple(self):
        f = np.zeros((3, 3))
        res = ServeResult(-1.5, f, model="lj", priority="batch")
        e, forces = res
        assert e == -1.5 and forces is f
        assert res.energy == -1.5 and res.forces is f
        assert res.model == "lj" and res.priority == "batch"
        assert isinstance(res, tuple) and len(res) == 2


# ---------------------------------------------------------------------------
# admission: class bounds, eviction, health-state shedding
# ---------------------------------------------------------------------------
class TestPriorityAdmission:
    def test_class_bound_sheds_with_typed_error(self):
        server = paused_server(
            qos=QoSPolicy(queue_bounds={"background": 2}), max_queue=10
        )
        try:
            for k in range(2):
                server.submit(make_system(seed=k), priority="background")
            with pytest.raises(LoadShed, match="queue share full"):
                server.submit(make_system(seed=9), priority="background")
            m = server.metrics.snapshot()["counters"]
            assert m["requests_shed"] == 1
            assert m[SHED_LOAD + "{class=background}"] == 1
        finally:
            server.stop(drain=False)

    def test_load_shed_is_a_server_overloaded(self):
        # Legacy callers catching ServerOverloaded keep working.
        assert issubclass(LoadShed, ServerOverloaded)
        assert issubclass(LoadShed, ServeError)

    def test_interactive_evicts_newest_weaker_request(self):
        server = paused_server(
            qos=QoSPolicy(queue_bounds={"background": 3, "batch": 3}),
            max_queue=3,
        )
        try:
            victims = [
                server.submit(make_system(seed=k), priority="background")
                for k in range(3)
            ]
            fut = server.submit(make_system(seed=9), priority="interactive")
            # The *newest* background request was displaced with a typed
            # error; the older ones and the arrival are still queued.
            with pytest.raises(LoadShed, match="evicted"):
                victims[2].result(timeout=1.0)
            assert not victims[0].done() and not victims[1].done()
            assert not fut.done()
            by_class = server.batcher.pending_by_class()
            assert by_class["interactive"] == 1 and by_class["background"] == 2
            m = server.metrics.snapshot()["counters"]
            assert m["requests_failed"] == 1 and m["errors_shed"] == 1
            assert m[SHED_LOAD + "{class=background}"] == 1
        finally:
            server.stop(drain=False)

    def test_weakest_only_queue_sheds_weak_arrival(self):
        server = paused_server(qos=QoSPolicy(), max_queue=4)
        try:
            for k in range(4):
                server.submit(make_system(seed=k), priority="interactive")
            # A weaker arrival cannot displace stronger work.
            with pytest.raises(LoadShed):
                server.submit(make_system(seed=9), priority="batch")
        finally:
            server.stop(drain=False)

    def test_shedding_state_admits_only_interactive(self):
        server = drive(paused_server(qos=STICKY), 2)
        try:
            assert server.health.state == "SHEDDING"
            for priority in ("batch", "background"):
                with pytest.raises(LoadShed, match="health state SHEDDING"):
                    server.submit(make_system(), priority=priority)
            fut = server.submit(make_system(), priority="interactive")
            assert not fut.done()
            m = server.metrics.snapshot()["counters"]
            assert m["errors_shed"] == 2 and m["requests_admitted"] == 1
        finally:
            server.stop(drain=False)

    def test_draining_state_sheds_everything(self):
        server = paused_server(qos=QoSPolicy())
        server.health.begin_drain()
        try:
            with pytest.raises(LoadShed, match="DRAINING"):
                server.submit(make_system(), priority="interactive")
        finally:
            server.stop(drain=False)

    def test_without_qos_or_health_admission_is_legacy(self):
        # No policy: the default monitor observes but never sheds.
        server = paused_server(max_queue=2)
        try:
            for k in range(2):
                server.submit(make_system(seed=k), priority="background")
            with pytest.raises(ServerOverloaded):
                server.submit(make_system(seed=9), priority="background")
            # Plain overload accounting, not a QoS shed.
            m = server.metrics.snapshot()["counters"]
            assert m["errors_overload"] == 1
        finally:
            server.stop(drain=False)


class TestShutdownTyped:
    def test_submit_after_stop_raises_server_stopped(self):
        server = ForceServer(make_lj(), n_workers=1, engine="eager")
        server.stop()
        with pytest.raises(ServerStopped, match="not accepting"):
            server.submit(make_system())
        assert issubclass(ServerStopped, ServeError)
        assert server.metrics.snapshot()["counters"]["errors_shutdown"] == 1


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------
class TestDeadlines:
    def test_expired_request_sheds_before_any_force_call(self):
        pot = CountingLJ(epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
        server = paused_server(potential=pot, qos=QoSPolicy())
        try:
            fut = server.submit(make_system(), deadline=0.0)
            live = server.submit(make_system(seed=1))
            time.sleep(0.002)  # let the 0-second deadline lapse strictly
            server.start()
            with pytest.raises(DeadlineExceeded):
                fut.result(timeout=5.0)
            e, f = live.result(timeout=5.0)
            assert np.isfinite(e)
            # Exactly one evaluation happened: the expired request never
            # reached the potential.
            assert pot.calls == 1
            m = server.metrics.snapshot()["counters"]
            assert m["requests_expired"] == 1
            assert m["errors_deadline"] == 1
            assert m[SHED_DEADLINE + "{class=batch}"] == 1
        finally:
            server.stop(drain=True)

    def test_policy_default_deadline_applies(self):
        server = paused_server(
            qos=QoSPolicy(deadlines={"interactive": 0.001})
        )
        try:
            fut = server.submit(make_system(), priority="interactive")
            time.sleep(0.01)
            server.start()
            with pytest.raises(DeadlineExceeded):
                fut.result(timeout=5.0)
        finally:
            server.stop(drain=True)

    def test_infeasible_deadline_sheds_at_pickup(self):
        server = paused_server(qos=QoSPolicy())
        try:
            # Pretend one batch evaluation takes 100 s: a 5 s deadline is
            # infeasible even though it has not passed yet.
            server.executor.eval_ewma = 100.0
            fut = server.submit(make_system(), deadline=5.0)
            server.start()
            with pytest.raises(DeadlineExceeded, match="unmeetable"):
                fut.result(timeout=5.0)
            m = server.metrics.snapshot()["counters"]
            assert m["requests_expired"] == 1
        finally:
            server.stop(drain=True)

    def test_client_deadline_passthrough(self):
        server = paused_server(qos=QoSPolicy())
        try:
            client = Client(server, priority="interactive", deadline=0.0)
            fut = client.submit(make_system())
            time.sleep(0.002)
            server.start()
            with pytest.raises(DeadlineExceeded):
                fut.result(timeout=5.0)
        finally:
            server.stop(drain=True)


class TestDeadlineAwareBatching:
    def fake_clock(self):
        return self.now

    def make(self, window=10.0, max_batch=4):
        self.now = 1000.0
        return MicroBatcher(
            max_batch=max_batch, max_wait=window, adaptive=False,
            clock=self.fake_clock,
        )

    def req(self, deadline=None, priority="batch", seed=0):
        return ForceRequest(
            system=make_system(seed=seed),
            model="m",
            future=None,
            deadline=deadline,
            priority=priority,
        )

    def test_partial_batch_releases_at_tightest_deadline(self):
        b = self.make(window=10.0)
        b.put(self.req(deadline=1000.5))
        # Window (10 s) has not elapsed and the batch is not full: the
        # deadline is the only reason to release.
        assert b.get_batch(timeout=0) is None
        self.now = 1000.5  # exactly the deadline: release, don't expire
        batch = b.get_batch(timeout=0)
        assert batch is not None and len(batch) == 1

    def test_past_deadline_requests_are_purged_not_assembled(self):
        expired = []
        b = self.make(window=0.0)
        b.on_expire = expired.extend
        b.put(self.req(deadline=1000.5, seed=0))
        b.put(self.req(deadline=2000.0, seed=1))
        self.now = 1001.0  # strictly past the first deadline
        batch = b.get_batch(timeout=0)
        assert [r.deadline for r in expired] == [1000.5]
        assert batch is not None and len(batch) == 1
        assert batch[0].deadline == 2000.0
        assert b.stats()["n_expired"] == 1

    def test_stronger_class_dispatches_first(self):
        b = self.make(window=0.0)
        b.put(self.req(priority="background", seed=0))
        b.put(self.req(priority="interactive", seed=1))
        batch = b.get_batch(timeout=0)
        assert batch[0].priority == "interactive"
        assert b.get_batch(timeout=0)[0].priority == "background"

    def test_batches_never_mix_priority_classes(self):
        b = self.make(window=0.0, max_batch=8)
        for k in range(3):
            b.put(self.req(priority="batch", seed=k))
        for k in range(3):
            b.put(self.req(priority="background", seed=10 + k))
        first = b.get_batch(timeout=0)
        second = b.get_batch(timeout=0)
        assert {r.priority for r in first} == {"batch"}
        assert {r.priority for r in second} == {"background"}


# ---------------------------------------------------------------------------
# degraded serving
# ---------------------------------------------------------------------------
class TestDegradedServing:
    """``DEGRADED`` changes admission only: a server held there serves each
    request on the model and engine it asked for."""

    @staticmethod
    def direct(pot, system):
        return pot.energy_and_forces(system, pot.prepare_neighbors(system))

    def test_degraded_serves_the_requested_model(self):
        lj = make_lj()
        cheap = LennardJones(epsilon=0.1, sigma=1.0, cutoff=2.0, n_species=2)
        server = drive(
            ForceServer(lj, n_workers=1, engine="eager", qos=STICKY, start=False), 1
        )
        server.registry.register("cheap", cheap)
        server.start()
        try:
            assert server.health.state == "DEGRADED"
            system = make_system()
            res = Client(server).evaluate(system, priority="interactive")
            assert isinstance(res, ServeResult)
            assert res.model == "default" and res.priority == "interactive"
            e, f = res  # legacy unpacking still works
            e0, f0 = self.direct(lj, system)
            assert e == e0
            np.testing.assert_array_equal(f, f0)
            res = Client(server, model="cheap").evaluate(system)
            assert res.model == "cheap"
            assert res.energy == self.direct(cheap, system)[0]
            assert server.health.state == "DEGRADED"
        finally:
            server.stop(drain=True)

    def test_degraded_compiled_server_stays_compiled(self):
        server = drive(
            ForceServer(make_lj(), n_workers=1, engine="compiled", qos=STICKY, start=False),
            1,
        )
        server.start()
        try:
            systems = [make_system(seed=k) for k in range(3)]
            results = Client(server).evaluate_many(systems)
            assert server.health.state == "DEGRADED"
            m = server.metrics.snapshot()["counters"]
            assert m["plan_captures"] + m["plan_replays"] == m["batches"] > 0
            for res, system in zip(results, systems):
                assert res.model == "default"
                e0, f0 = self.direct(make_lj(), system)
                assert res.energy == e0
                np.testing.assert_array_equal(res.forces, f0)
        finally:
            server.stop(drain=True)

    def test_healthy_server_never_degrades(self):
        server = ForceServer(make_lj(), n_workers=1, engine="eager", qos=QoSPolicy())
        server.registry.register("cheap", make_lj())
        try:
            res = Client(server).evaluate(make_system())
            assert res.model == "default"
            assert server.health.state == "HEALTHY"
        finally:
            server.stop(drain=True)


class TestStatsSurface:
    def test_stats_include_health_and_qos_sections(self):
        server = paused_server(qos=QoSPolicy(), max_queue=8)
        try:
            server.submit(make_system(), priority="interactive")
            stats = server.stats()
            assert stats["health"]["state"] == "HEALTHY"
            assert stats["qos"]["enforced"]
            assert stats["qos"]["pending_by_class"]["interactive"] == 1
            assert stats["qos"]["class_bounds"]["interactive"] == 8
        finally:
            server.stop(drain=False)


# ---------------------------------------------------------------------------
# properties: no inversion, exact shed accounting (hypothesis)
# ---------------------------------------------------------------------------
priorities = st.sampled_from(("interactive", "batch", "background"))
arrival_seqs = st.lists(priorities, min_size=1, max_size=14)


class TestAdmissionProperties:
    @given(arrival_seqs)
    @settings(max_examples=30, deadline=None)
    def test_admission_never_inverts_and_accounting_is_exact(self, seq):
        server = paused_server(
            # Pin the monitor at HEALTHY (astronomical dwell): this
            # property isolates *admission* ordering; health-state
            # shedding is covered separately and by the chaos invariant.
            qos=QoSPolicy(
                queue_bounds={"batch": 5, "background": 5},
                health=HealthThresholds(dwell_up=10**6, dwell_down=10**6),
            ),
            max_queue=5,
        )
        n_shed = 0
        try:
            for k, priority in enumerate(seq):
                before = dict(server.batcher.pending_by_class())
                try:
                    server.submit(make_system(seed=k % 4), priority=priority)
                except (LoadShed, ServerOverloaded):
                    n_shed += 1
                    # An arrival is only shed when no strictly weaker
                    # class holds a slot (else it would have evicted).
                    weaker = [
                        p for p in ("interactive", "batch", "background")
                        if priority_level(p) > priority_level(priority)
                    ]
                    assert all(before.get(p, 0) == 0 for p in weaker)
            m = server.metrics.snapshot()["counters"]
            pending = server.batcher.pending()
            evicted = m.get("requests_failed", 0)
            # Nothing ran (no workers): every admitted request is either
            # still pending or was evicted; every rejected one counted.
            assert m.get("requests_admitted", 0) == pending + evicted
            assert m.get("requests_shed", 0) == n_shed
            shed_counters = sum(
                v for k_, v in m.items() if k_.startswith(SHED_LOAD + "{")
            )
            assert shed_counters == n_shed + evicted
        finally:
            server.stop(drain=False)

    @given(arrival_seqs)
    @settings(max_examples=30, deadline=None)
    def test_batcher_dispatch_order_is_strict_priority(self, seq):
        self_now = [0.0]
        b = MicroBatcher(
            max_batch=1, max_wait=0.0, adaptive=False, clock=lambda: self_now[0]
        )
        for k, priority in enumerate(seq):
            b.put(
                ForceRequest(
                    system=None, model="m", future=None, priority=priority
                )
            )
        out = []
        while True:
            batch = b.get_batch(timeout=0)
            if batch is None:
                break
            out.extend(r.priority for r in batch)
        levels = [priority_level(p) for p in out]
        assert sorted(levels) == levels  # strongest classes drain first
        assert len(out) == len(seq)
