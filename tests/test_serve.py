"""Serving-layer tests: exactness, caching, batching, backpressure, lifecycle.

The acceptance contract for ``repro.serve`` mirrors the engine's: served
energies and forces must be *bitwise* identical (float64) to direct eager
evaluation of each structure — batching, padding, plan reuse and thread
hand-offs change throughput, never physics.  Around that core, these tests
pin down the operational behaviours a service needs: model routing and
replacement in the registry, bucket-cache hit/miss accounting,
micro-batch coalescing, shed-with-error backpressure, deadlines, and
graceful drain.
"""

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.md import Cell, System, neighbor_list
from repro.models import (
    AllegroConfig,
    AllegroModel,
    LennardJones,
    MorsePotential,
    NequIPConfig,
    NequIPModel,
)
from repro.obs import Histogram, Registry
from repro.resilience import FaultPlan, RetryPolicy
from repro.resilience.faults import POTENTIAL_CORRUPT, WORKER_CRASH, WORKER_STALL
from repro.serve import (
    CircuitOpen,
    Client,
    DeadlineExceeded,
    ForceServer,
    MicroBatcher,
    ModelFailure,
    ModelRegistry,
    PlanCache,
    ServeError,
    ServerOverloaded,
    SizeClasses,
    UnknownModelError,
)
from repro.serve.batching import ForceRequest


def make_system(n=12, seed=0, box=8.0):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, box, size=(n, 3))
    spec = rng.integers(0, 2, size=n)
    return System(pos, spec, Cell.cubic(box))


def make_lj():
    return LennardJones(epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)


def make_morse():
    D = np.full((2, 2), 0.4)
    a = np.full((2, 2), 1.6)
    r0 = np.full((2, 2), 1.4)
    return MorsePotential(D, a, r0, cutoff=3.5)


def make_shifted(pot, mu=(-5.0, -3.0)):
    """``pot`` with per-species shifts μ: every atom carries μ_Z, so a
    structure without edges has a non-zero energy."""
    pot.scale_shift.shifts.data[:] = mu
    return pot


def make_shifted_allegro():
    return make_shifted(
        AllegroModel(
            AllegroConfig(n_species=2, n_tensor=2, latent_dim=8, lmax=1, n_layers=1, r_cut=3.0)
        )
    )


class SlowLJ(LennardJones):
    """LJ whose neighbor-list build sleeps: a controllable slow model."""

    def __init__(self, delay, **kw):
        super().__init__(**kw)
        self.delay = delay

    def prepare_neighbors(self, system):
        time.sleep(self.delay)
        return neighbor_list(system, self.cutoff)


def direct_eager(pot, system):
    """The reference result: eager evaluation with the server's NL recipe."""
    prepare = getattr(pot, "prepare_neighbors", None)
    nl = prepare(system) if prepare is not None else neighbor_list(system, pot.cutoff)
    return pot.energy_and_forces(system, nl)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counters_and_get_or_create(self):
        m = Registry()
        m.counter("requests").inc()
        m.counter("requests").inc(4)
        assert m.counter("requests").value == 5
        assert m.snapshot()["counters"] == {"requests": 5}

    def test_histogram_moments_and_percentiles(self):
        m = Registry()
        h = m.histogram("lat", buckets=[0.001, 0.01, 0.1, 1.0])
        for x in [0.002, 0.003, 0.004, 0.05, 0.5]:
            h.observe(x)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == 0.002 and snap["max"] == 0.5
        assert snap["mean"] == pytest.approx(sum([0.002, 0.003, 0.004, 0.05, 0.5]) / 5)
        # Percentiles are bucket-interpolated: right bucket, monotone in q.
        assert 0.001 <= h.percentile(0.5) <= 0.01
        assert h.percentile(0.99) <= 0.5
        assert h.percentile(0.2) <= h.percentile(0.8)

    def test_histogram_rejects_bad_buckets(self):
        lock = threading.Lock()
        with pytest.raises(ValueError):
            Histogram("h", [1.0, 0.5], lock)
        with pytest.raises(ValueError):
            Histogram("h", [], lock)

    def test_snapshot_json_roundtrip_and_delta(self):
        m = Registry()
        m.counter("a").inc(3)
        m.histogram("h").observe(0.01)
        before = m.snapshot()
        m.counter("a").inc(2)
        m.counter("b").inc()
        delta = Registry.delta_since(before, m.snapshot())
        assert delta == {"a": 2, "b": 1}
        parsed = json.loads(m.to_json())
        assert parsed["counters"]["a"] == 5
        assert parsed["histograms"]["h"]["count"] == 1

    def test_write_json(self, tmp_path):
        m = Registry()
        m.counter("x").inc()
        path = tmp_path / "metrics.json"
        m.write_json(path)
        assert json.loads(path.read_text())["counters"]["x"] == 1


# ---------------------------------------------------------------------------
# size classes and plan cache
# ---------------------------------------------------------------------------


class TestSizeClasses:
    def test_ladder_covers_and_is_deterministic(self):
        sc = SizeClasses(floor=16, growth=1.5)
        for n in [1, 16, 17, 24, 25, 100, 1000]:
            c = sc.round_up(n)
            assert c >= n
            assert sc.round_up(n) == c  # stable
        assert sc.round_up(5) == 16  # floor
        # Ladder is geometric: distinct classes stay sparse.
        classes = {sc.round_up(n) for n in range(1, 2000)}
        assert len(classes) < 16

    def test_validation(self):
        with pytest.raises(ValueError):
            SizeClasses(floor=0)
        with pytest.raises(ValueError):
            SizeClasses(growth=1.0)


class TestPlanCache:
    def test_hit_miss_accounting(self):
        cache = PlanCache(make_lj(), max_plans=4)
        e1 = cache.acquire(10, 60)
        e2 = cache.acquire(11, 55)  # same buckets
        assert e1 is e2
        assert (cache.n_hits, cache.n_misses) == (1, 1)
        cache.acquire(200, 900)  # new bucket
        assert (cache.n_hits, cache.n_misses) == (1, 2)
        stats = cache.stats()
        assert stats["n_plans"] == 2
        assert stats["hit_rate"] == pytest.approx(1 / 3)

    def test_mixed_sizes_map_to_few_buckets(self):
        cache = PlanCache(make_lj(), max_plans=32)
        for n in range(5, 60):
            cache.acquire(n, n * 6)
        # 55 distinct request sizes collapse onto a small (atom, pair)
        # class grid — the property that keeps replay hit-rate high.
        assert cache.n_plans <= 12

    def test_lru_eviction(self):
        cache = PlanCache(make_lj(), max_plans=2)
        k_small = cache.acquire(10, 64).key
        cache.acquire(100, 600)
        cache.acquire(10, 64)  # touch small → MRU
        cache.acquire(400, 4000)  # evicts the middle bucket
        assert cache.n_evictions == 1
        assert k_small in cache.keys()
        assert cache.n_plans == 2

    def test_bucketed_evaluate_replays_and_is_exact(self):
        pot = make_lj()
        cache = PlanCache(pot)
        for seed in range(4):
            system = make_system(n=14, seed=seed)
            nl = neighbor_list(system, pot.cutoff)
            e0, f0 = pot.energy_and_forces(system, nl)
            entry = cache.acquire(system.n_atoms, nl.n_edges)
            with entry.lock:
                e_atoms, forces = entry.compiled.evaluate(
                    system.positions, system.species, nl
                )
                assert float(np.sum(e_atoms[: system.n_atoms])) == e0
                np.testing.assert_array_equal(forces[: system.n_atoms], f0)
        stats = cache.stats()
        assert stats["n_captures"] == 1  # one bucket, one capture
        assert stats["n_replays"] == 4

    def test_clear_drops_plans(self):
        cache = PlanCache(make_lj())
        cache.acquire(10, 64)
        cache.clear()
        assert cache.n_plans == 0
        assert cache.n_evictions == 1


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestModelRegistry:
    def test_register_resolve_and_default(self):
        reg = ModelRegistry()
        lj, morse = make_lj(), make_morse()
        reg.register("lj", lj)
        reg.register("morse", morse)
        assert reg.default_model == "lj"
        assert reg.get().potential is lj
        assert reg.get("morse").potential is morse
        assert reg.names() == ["lj", "morse"]

    def test_register_again_replaces_entry(self):
        """A second ``register`` of a name swaps in a new entry: the next
        batch is served bitwise by the new potential, and the old entry's
        plans and breaker are not the new one's."""
        reg = ModelRegistry()
        old = reg.register("lj", make_lj())
        systems = [make_system(n=12, seed=k) for k in range(4)]
        new_pot = LennardJones(epsilon=0.5, sigma=1.0, cutoff=3.0, n_species=2)
        with ForceServer(reg, n_workers=1, max_batch=4) as server:
            client = Client(server)
            client.evaluate_many(systems)
            assert old.plan_cache.n_plans > 0
            new = reg.register("lj", new_pot)
            served = client.evaluate_many(systems)
            stats = server.stats()
        assert reg.get("lj") is new and reg.names() == ["lj"]
        assert new.plan_cache is not old.plan_cache
        assert new.breaker is not old.breaker
        assert stats["registry"]["models"]["lj"]["misses"] == new.plan_cache.n_plans > 0
        for (e, f), s in zip(served, systems):
            e0, f0 = direct_eager(new_pot, s)
            assert e == e0
            np.testing.assert_array_equal(f, f0)

    def test_unknown_model_raises(self):
        reg = ModelRegistry()
        with pytest.raises(UnknownModelError):
            reg.get()  # empty registry
        reg.register("lj", make_lj())
        with pytest.raises(UnknownModelError):
            reg.get("nequip")
        with pytest.raises(UnknownModelError):
            reg.get("lj:v1")

    def test_stats_are_keyed_by_bare_name(self):
        reg = ModelRegistry()
        reg.register("lj", make_lj())
        reg.register("morse", make_morse())
        reg.get("morse").plan_cache.acquire(10, 64)
        stats = reg.stats()
        assert stats["default_model"] == "lj" and stats["n_registered"] == 2
        assert set(stats["models"]) == set(stats["breakers"]) == {"lj", "morse"}
        assert stats["models"]["morse"]["n_plans"] == 1
        assert stats["models"]["lj"]["n_plans"] == 0
        assert stats["breakers"]["lj"] == "closed"

    def test_invalidate_drops_plans(self):
        reg = ModelRegistry()
        reg.register("lj", make_lj())
        reg.get("lj").plan_cache.acquire(10, 64)
        reg.invalidate("lj")
        assert reg.get("lj").plan_cache.n_plans == 0

    def test_colon_in_name_rejected(self):
        with pytest.raises(ValueError):
            ModelRegistry().register("a:b", make_lj())


# ---------------------------------------------------------------------------
# micro-batcher
# ---------------------------------------------------------------------------


def _req(model="m", t=None):
    return ForceRequest(
        system=None, model=model, future=None, t_enqueue=t if t is not None else 0.0
    )


class TestMicroBatcher:
    def test_full_batch_releases_immediately(self):
        b = MicroBatcher(max_batch=4, max_wait=10.0)  # window would block
        for _ in range(4):
            b.put(_req())
        batch = b.get_batch(timeout=0.5)
        assert batch is not None and len(batch) == 4
        assert b.pending() == 0

    def test_partial_batch_waits_out_the_window(self):
        b = MicroBatcher(max_batch=8, max_wait=0.05, adaptive=False)
        b.put(_req())
        t0 = time.monotonic()
        batch = b.get_batch(timeout=1.0)
        waited = time.monotonic() - t0
        assert len(batch) == 1
        assert waited >= 0.02  # held for (most of) the window

    def test_batches_never_mix_models(self):
        b = MicroBatcher(max_batch=8, max_wait=0.0)
        for k in range(6):
            b.put(_req(model="x" if k % 2 else "y"))
        seen = []
        while b.pending():
            batch = b.get_batch(timeout=0.2)
            assert len({r.model for r in batch}) == 1
            seen.append((batch[0].model, len(batch)))
        assert sorted(seen) == [("x", 3), ("y", 3)]

    def test_fifo_within_model(self):
        b = MicroBatcher(max_batch=8, max_wait=0.0)
        now = time.monotonic()
        for k in range(5):
            b.put(_req(t=now + k * 1e-6))
        batch = b.get_batch(timeout=0.2)
        stamps = [r.t_enqueue for r in batch]
        assert stamps == sorted(stamps)

    def test_adaptive_window_tracks_arrival_rate(self):
        clock_val = [0.0]
        b = MicroBatcher(max_batch=5, max_wait=1.0, clock=lambda: clock_val[0])
        for _ in range(10):
            clock_val[0] += 0.001  # 1 ms gaps
            b.put(_req(t=clock_val[0]))
        # window ≈ gap * (max_batch - 1) = 4 ms, far below max_wait.
        assert 0.0 < b.window() < 0.1

    def test_close_drains_then_none(self):
        b = MicroBatcher(max_batch=8, max_wait=10.0)
        b.put(_req())
        b.close()
        # Closed ⇒ the coalescing window no longer applies: drain promptly.
        assert len(b.get_batch(timeout=0.2)) == 1
        assert b.get_batch(timeout=0.0) is None
        with pytest.raises(RuntimeError):
            b.put(_req())

    def test_get_batch_times_out_empty(self):
        b = MicroBatcher()
        t0 = time.monotonic()
        assert b.get_batch(timeout=0.02) is None
        assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# the server: exactness
# ---------------------------------------------------------------------------


class TestServedExactness:
    @pytest.mark.parametrize("engine", ["compiled", "eager"])
    def test_served_results_bitwise_match_direct_eager(self, engine):
        """The acceptance criterion: serving is invisible in float64."""
        pot = make_lj()
        systems = [make_system(n=8 + (k % 9), seed=k) for k in range(24)]
        with ForceServer(pot, n_workers=2, max_batch=6, engine=engine) as server:
            results = Client(server).evaluate_many(systems)
        for system, (e, f) in zip(systems, results):
            e0, f0 = direct_eager(pot, system)
            assert e == e0
            np.testing.assert_array_equal(f, f0)

    def test_morse_served_bitwise(self):
        pot = make_morse()
        systems = [make_system(n=10 + k, seed=k) for k in range(8)]
        with ForceServer(pot, n_workers=2, max_batch=4) as server:
            results = Client(server).evaluate_many(systems)
        for system, (e, f) in zip(systems, results):
            e0, f0 = direct_eager(pot, system)
            assert e == e0
            np.testing.assert_array_equal(f, f0)

    def test_zero_edge_structures_use_exact_empty_path(self):
        """A structure without edges is a zero-edge graph on the one path:
        its atoms keep their per-species shift (Allegro) or per-atom
        readout (NequIP), served as eagerly computed."""
        sparse = System(
            np.array([[0.0, 0.0, 0.0], [20.0, 20.0, 20.0]]),
            np.array([0, 1]),
            Cell.cubic(50.0),
        )
        dense = make_system(n=10, seed=3)
        nequip = make_shifted(NequIPModel(NequIPConfig(n_species=2, n_features=4, n_layers=2)))
        for pot in (make_shifted_allegro(), nequip):
            assert pot.prepare_neighbors(sparse).n_edges == 0
            with ForceServer(pot, n_workers=1, max_batch=4) as server:
                (e_s, f_s), (e_d, f_d) = Client(server).evaluate_many([sparse, dense])
            e0, f0 = direct_eager(pot, sparse)
            assert e_s == e0 and e_s != 0.0  # the per-atom energy survived serving
            np.testing.assert_array_equal(f_s, f0)
            e1, f1 = direct_eager(pot, dense)
            assert e_d == e1
            np.testing.assert_array_equal(f_d, f1)

    @pytest.mark.parametrize("model", ["lj", "allegro_shifted", "allegro_pruned"])
    def test_one_mixed_batch_equals_per_request_submission(self, model):
        """One batch holding a structure without edges, a structure that
        brings its own list and one big enough for the cell list, next to
        small ones: every result is what the structure gets on its own."""
        if model == "lj":
            pot = make_lj()
        elif model == "allegro_shifted":
            pot = make_shifted_allegro()
        else:
            pot = AllegroModel(
                AllegroConfig(
                    n_species=2, n_tensor=2, latent_dim=8, lmax=1, n_layers=1,
                    r_cut=3.0, per_pair_cutoffs=np.array([[3.0, 2.0], [2.5, 3.0]]),
                )
            )
        rng = np.random.default_rng(4)
        lattice = 1.6 * np.stack(
            np.meshgrid(*[np.arange(7)] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        big = System(
            lattice + rng.normal(scale=0.05, size=lattice.shape),
            rng.integers(0, 2, size=len(lattice)),
            Cell.cubic(7 * 1.6),
        )
        assert big.n_atoms >= 256  # 'auto' bins it
        apart = System(
            np.array([[0.0, 0.0, 0.0], [20.0, 20.0, 20.0]]), np.array([0, 1]), Cell.cubic(50.0)
        )
        own = make_system(n=14, seed=21)
        # the caller's list is not the model's: unpruned, and reversed
        own_nl = neighbor_list(own, 3.0)
        own_nl.edge_index, own_nl.shifts = own_nl.edge_index[:, ::-1], own_nl.shifts[::-1]
        systems = [make_system(n=9, seed=1), apart, own, big, make_system(n=17, seed=2)]
        nls = [None, None, own_nl, None, None]

        with ForceServer(pot, n_workers=1, max_batch=8, start=False) as server:
            server.start(workers=False)
            futures = [server.submit(s, nl=nl) for s, nl in zip(systems, nls)]
            server.start()
            batched = [f.result(timeout=120) for f in futures]
            stats = server.stats()
            assert stats["counters"]["batches"] == 1
            assert stats["histograms"]["batch_occupancy"]["max"] == len(systems)
            single = [Client(server).evaluate(s, nl=nl) for s, nl in zip(systems, nls)]
            assert server.stats()["counters"]["batches"] == 1 + len(systems)
        for system, nl, (e, f), (e1, f1) in zip(systems, nls, batched, single):
            assert e == e1
            np.testing.assert_array_equal(f, f1)
            e0, f0 = pot.energy_and_forces(system, nl)  # nl=None: the model's own
            assert e == e0
            np.testing.assert_array_equal(f, f0)
        if model == "allegro_shifted":
            assert batched[1][0] != 0.0  # the shifts survived the merged graph
        if model == "allegro_pruned":
            assert pot.prepare_neighbors(own).n_edges < own_nl.n_edges

    def test_graph_build_and_model_time_are_separate_stages(self):
        """``prepare_s`` / ``eval_s`` per batch, and a ``serve.prepare`` span
        beside ``serve.eval`` under ``serve.batch``."""
        tracer = obs.get_tracer()
        tracer.clear()
        obs.enable()
        try:
            with ForceServer(make_lj(), n_workers=1, max_batch=4) as server:
                Client(server).evaluate_many([make_system(n=10 + k, seed=k) for k in range(8)])
                stats = server.stats()
        finally:
            obs.disable()
        phases = tracer.phase_totals("serve.batch")
        tracer.clear()
        n_batches = stats["counters"]["batches"]
        hists = stats["histograms"]
        assert hists["prepare_s"]["count"] == hists["eval_s"]["count"] == n_batches
        assert phases["serve.batch/serve.prepare"]["count"] == n_batches
        assert phases["serve.batch/serve.eval"]["count"] == n_batches
        # the two stages are what a batch's service time is made of
        assert hists["prepare_s"]["sum"] > 0 and hists["eval_s"]["sum"] > 0
        assert hists["prepare_s"]["sum"] + hists["eval_s"]["sum"] <= sum(
            v["total_s"] for k, v in phases.items() if k == "serve.batch"
        )

    def test_a_model_with_its_own_list_recipe_keeps_it_in_a_batch(self):
        """Overriding ``prepare_neighbors`` alone is enough: the server does
        not build a merged list behind such a model's back."""
        calls = []

        class Skinned(LennardJones):
            def prepare_neighbors(self, system):
                calls.append(system.n_atoms)
                return neighbor_list(system, self.cutoff + 0.5)

        pot = Skinned(epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
        systems = [make_system(n=10 + k, seed=k, box=9.0) for k in range(4)]
        _, _, nl, offsets = pot.prepare_batch(systems)
        assert calls == [10, 11, 12, 13]
        structure = np.searchsorted(offsets, nl.edge_index[0], side="right") - 1
        counts = np.bincount(structure, minlength=len(systems))
        assert counts.tolist() == [neighbor_list(s, 3.5).n_edges for s in systems]
        assert counts.sum() > sum(neighbor_list(s, 3.0).n_edges for s in systems)

    def test_caller_supplied_neighbor_list_is_respected(self):
        pot = make_lj()
        system = make_system(n=12, seed=5)
        nl = neighbor_list(system, pot.cutoff)
        e0, f0 = pot.energy_and_forces(system, nl)
        with ForceServer(pot, n_workers=1) as server:
            e, f = Client(server).evaluate(system, nl=nl)
        assert e == e0
        np.testing.assert_array_equal(f, f0)

    def test_multi_model_routing(self):
        reg = ModelRegistry()
        lj, morse = make_lj(), make_morse()
        reg.register("lj", lj)
        reg.register("morse", morse)
        system = make_system(n=12, seed=7)
        with ForceServer(reg, n_workers=2) as server:
            e_lj, _ = Client(server, model="lj").evaluate(system)
            e_m, _ = Client(server, model="morse").evaluate(system)
        assert e_lj == direct_eager(lj, system)[0]
        assert e_m == direct_eager(morse, system)[0]
        assert e_lj != e_m


# ---------------------------------------------------------------------------
# the server: plan reuse
# ---------------------------------------------------------------------------


class TestReplayRate:
    def test_mixed_size_stream_replays_after_warmup(self):
        """≥95% plan replays post-warmup on heterogeneous request sizes."""
        pot = make_lj()
        systems = [make_system(n=9 + (k % 12), seed=k) for k in range(40)]
        with ForceServer(pot, n_workers=2, max_batch=8) as server:
            client = Client(server)
            client.evaluate_many(systems)  # warmup: discovers the buckets
            before = server.metrics.snapshot()
            for _ in range(3):
                client.evaluate_many(systems)
            delta = Registry.delta_since(before, server.metrics.snapshot())
        replays = delta.get("plan_replays", 0)
        captures = delta.get("plan_captures", 0)
        assert replays + captures > 0
        rate = replays / (replays + captures)
        assert rate >= 0.95, f"post-warmup replay rate {rate:.2%}"

    def test_single_size_stream_uses_one_plan(self):
        pot = make_lj()
        systems = [make_system(n=12, seed=k) for k in range(12)]
        with ForceServer(pot, n_workers=1, max_batch=1) as server:
            Client(server).evaluate_many(systems)
            stats = server.stats()
        model_stats = stats["registry"]["models"]["default"]
        assert model_stats["n_plans"] <= 2  # edge counts may straddle a class
        assert model_stats["misses"] == model_stats["n_plans"]
        assert model_stats["hits"] == 12 - model_stats["misses"]


# ---------------------------------------------------------------------------
# the server: backpressure, deadlines, lifecycle
# ---------------------------------------------------------------------------


class TestBackpressure:
    def test_full_queue_sheds_with_error(self):
        reg = ModelRegistry()
        reg.register("slow", SlowLJ(0.15, epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2))
        system = make_system(n=6, seed=0)
        with ForceServer(reg, n_workers=1, max_queue=3, max_batch=1) as server:
            futures = []
            with pytest.raises(ServerOverloaded):
                for _ in range(8):  # worker absorbs ≤1; pending must hit the cap
                    futures.append(server.submit(system, model="slow"))
            assert server.metrics.counter("requests_shed").value >= 1
            # Admitted requests still complete: shedding is not failure.
            for fut in futures:
                e, f = fut.result(timeout=10.0)
                assert np.isfinite(e)
        snap = server.stats()
        assert snap["counters"]["requests_shed"] >= 1
        assert snap["counters"]["requests_served"] == len(futures)

    def test_server_recovers_after_shedding(self):
        pot = make_lj()
        system = make_system(n=10, seed=1)
        reg = ModelRegistry()
        reg.register("slow", SlowLJ(0.1, epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2))
        reg.register("fast", pot)
        with ForceServer(reg, n_workers=1, max_queue=2, max_batch=1) as server:
            try:
                for _ in range(6):
                    server.submit(system, model="slow")
            except ServerOverloaded:
                pass
            server.drain(timeout=10.0)
            e, _ = Client(server, model="fast").evaluate(system)
            assert e == direct_eager(pot, system)[0]


class TestDeadlineBudget:
    def test_stale_request_fails_with_deadline_exceeded(self):
        reg = ModelRegistry()
        reg.register("slow", SlowLJ(0.25, epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2))
        reg.register("fast", make_lj())
        system = make_system(n=6, seed=0)
        with ForceServer(reg, n_workers=1, max_batch=1) as server:
            blocker = server.submit(system, model="slow")
            stale = server.submit(system, model="fast", deadline=0.05)
            with pytest.raises(DeadlineExceeded):
                stale.result(timeout=10.0)
            blocker.result(timeout=10.0)
            stats = server.stats()
            assert stats["counters"]["requests_expired"] == 1
            assert stats["errors"]["deadline"] == 1

    def test_generous_deadline_succeeds(self):
        pot = make_lj()
        system = make_system(n=10, seed=2)
        with ForceServer(pot, n_workers=1) as server:
            e, _ = Client(server, deadline=30.0).evaluate(system)
        assert e == direct_eager(pot, system)[0]


class TestLifecycle:
    def test_drain_completes_all_admitted(self):
        pot = make_lj()
        systems = [make_system(n=10, seed=k) for k in range(10)]
        server = ForceServer(pot, n_workers=2, max_batch=4)
        futures = [server.submit(s) for s in systems]
        assert server.drain(timeout=10.0)
        assert all(f.done() for f in futures)
        server.stop()

    def test_stop_rejects_new_work(self):
        # Regression: submit-after-stop must raise the *typed*
        # ServerStopped (error class "shutdown"), not a bare ServeError.
        from repro.serve import ServerStopped

        server = ForceServer(make_lj(), n_workers=1)
        server.stop()
        with pytest.raises(ServerStopped):
            server.submit(make_system())
        assert issubclass(ServerStopped, ServeError)
        counters = server.metrics.snapshot()["counters"]
        assert counters["errors_shutdown"] == 1

    def test_context_manager_drains_on_exit(self):
        with ForceServer(make_lj(), n_workers=1) as server:
            fut = server.submit(make_system(n=10, seed=0))
        assert fut.done() and fut.exception() is None

    def test_unknown_model_raises_at_submit(self):
        with ForceServer(make_lj(), n_workers=1) as server:
            with pytest.raises(UnknownModelError):
                server.submit(make_system(), model="nope")

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ForceServer(make_lj(), engine="jit", start=False)
        with pytest.raises(ValueError):
            ForceServer(make_lj(), n_workers=0, start=False)
        with pytest.raises(ValueError):
            ForceServer(make_lj(), max_queue=0, start=False)

    def test_stats_shape(self):
        with ForceServer(make_lj(), n_workers=1) as server:
            Client(server).evaluate(make_system(n=10, seed=0))
            stats = server.stats()
        assert stats["engine"] == "compiled"
        assert 0.0 <= stats["replay_rate"] <= 1.0
        assert "latency_s" in stats["histograms"]
        assert stats["counters"]["requests_served"] == 1
        json.dumps(stats, default=float)  # snapshot must be serializable


# ---------------------------------------------------------------------------
# concurrency: many clients, one server
# ---------------------------------------------------------------------------


class TestConcurrentClients:
    def test_parallel_submitters_all_get_exact_results(self):
        pot = make_lj()
        systems = [make_system(n=8 + (k % 7), seed=k) for k in range(24)]
        expected = [direct_eager(pot, s) for s in systems]
        results = [None] * len(systems)
        with ForceServer(pot, n_workers=3, max_batch=4, max_queue=64) as server:
            def submit_range(lo, hi):
                for k in range(lo, hi):
                    results[k] = Client(server).evaluate(systems[k])

            threads = [
                threading.Thread(target=submit_range, args=(lo, lo + 8))
                for lo in (0, 8, 16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for (e, f), (e0, f0) in zip(results, expected):
            assert e == e0
            np.testing.assert_array_equal(f, f0)

    def test_unresolved_set_survives_contention(self):
        """Four workers and four submitters (more threads than cores) on a
        shortened switch interval: every admitted request leaves the
        server's set of unresolved requests exactly once, so drain()
        returns and the counts add up."""
        systems = [make_system(n=6 + (k % 5), seed=k) for k in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ForceServer(
                make_lj(), n_workers=4, max_batch=2, max_queue=256, engine="eager"
            ) as server:
                client = Client(server)
                threads = [
                    threading.Thread(target=client.evaluate_many, args=(systems,))
                    for _ in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
                assert server.drain(timeout=10.0)
                counters = server.stats()["counters"]
        finally:
            sys.setswitchinterval(interval)
        assert counters["requests_admitted"] == 4 * len(systems)
        assert counters["requests_served"] == 4 * len(systems)


# ---------------------------------------------------------------------------
# resilience: shutdown semantics, fault injection, circuit breaking
# ---------------------------------------------------------------------------


class CorruptingLJ(LennardJones):
    """LJ whose per-atom energies go NaN on scheduled calls (fault harness)."""

    def __init__(self, plan, **kw):
        super().__init__(**kw)
        self.plan = plan

    def atomic_energies(self, positions, species, nl):
        e = super().atomic_energies(positions, species, nl)
        if self.plan.fires(POTENTIAL_CORRUPT):
            return e * float("nan")
        return e


class HealsAfterLJ(LennardJones):
    """LJ that raises for the first ``fails_left`` evaluations, then works."""

    def __init__(self, fails_left, **kw):
        super().__init__(**kw)
        self.fails_left = fails_left

    def atomic_energies(self, positions, species, nl):
        if self.fails_left > 0:
            self.fails_left -= 1
            raise RuntimeError("model backend down")
        return super().atomic_energies(positions, species, nl)


class TestShutdownResilience:
    def test_stop_no_drain_fails_pending_futures(self):
        pot = SlowLJ(delay=0.05, epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
        server = ForceServer(
            pot, n_workers=1, max_batch=1, batch_wait=0.0, engine="eager"
        )
        futures = [server.submit(make_system(n=10, seed=k)) for k in range(8)]
        server.stop(drain=False)
        # Every admitted future resolves — finished or explicitly failed,
        # never left hanging.
        for fut in futures:
            assert fut.done()
            exc = fut.exception()
            assert exc is None or isinstance(exc, ServeError)
        assert any(isinstance(f.exception(), ServeError) for f in futures)
        errors = server.stats()["errors"]
        assert errors["shutdown"] >= 1

    def test_concurrent_stop_calls_resolve_everything(self):
        pot = SlowLJ(delay=0.02, epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
        server = ForceServer(
            pot, n_workers=2, max_batch=1, batch_wait=0.0, engine="eager"
        )
        futures = [server.submit(make_system(n=10, seed=k)) for k in range(10)]
        threads = [
            threading.Thread(target=server.stop, kwargs={"drain": False})
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for fut in futures:
            assert fut.done()
            exc = fut.exception()
            assert exc is None or isinstance(exc, ServeError)


class TestFaultInjectionServing:
    def test_injected_faults_all_requests_complete_correctly(self):
        """Worker crashes + stalls + NaN bursts: retries absorb everything,
        and every result equals the fault-free evaluation bitwise."""
        plan = FaultPlan(
            at={
                WORKER_CRASH: [2, 7, 8],
                WORKER_STALL: [4],
                POTENTIAL_CORRUPT: [5, 11],
            }
        )
        pot = CorruptingLJ(plan, epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
        ref = make_lj()
        systems = [make_system(n=8 + (k % 5), seed=k) for k in range(24)]
        server = ForceServer(
            pot,
            n_workers=1,  # sequential batches: the schedule is deterministic
            max_batch=2,
            engine="eager",
            fault_plan=plan,
            stall_time=0.001,
            retry_policy=RetryPolicy(
                max_retries=4, base_delay=1e-4, max_delay=1e-3, seed=2
            ),
        )
        futures = [server.submit(s) for s in systems]
        server.stop(drain=True)
        assert plan.fired(WORKER_CRASH) == 3
        assert plan.fired(POTENTIAL_CORRUPT) == 2
        for fut, s in zip(futures, systems):
            assert fut.exception() is None
            e, f = fut.result()
            e0, f0 = direct_eager(ref, s)
            assert e == e0
            np.testing.assert_array_equal(f, f0)
        stats = server.stats()
        assert stats["counters"]["batch_retries"] >= 5
        assert stats["errors"]["total"] == 0  # every fault was absorbed

    def test_persistent_failure_is_explicit_and_opens_breaker(self):
        registry = ModelRegistry(
            breaker_opts={"failure_threshold": 2, "reset_timeout": 3600.0}
        )
        plan = FaultPlan(rates={POTENTIAL_CORRUPT: 1.0})
        registry.register(
            "bad", CorruptingLJ(plan, epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
        )
        server = ForceServer(
            registry,
            n_workers=1,
            max_batch=1,
            batch_wait=0.0,
            engine="eager",
            retry_policy=RetryPolicy(
                max_retries=1, base_delay=0.0, sleep=lambda _t: None
            ),
        )
        futures = [server.submit(make_system(n=8, seed=k), model="bad") for k in range(5)]
        server.stop(drain=True)
        excs = [f.exception() for f in futures]
        assert all(isinstance(e, (ModelFailure, CircuitOpen)) for e in excs)
        assert isinstance(excs[0], ModelFailure)  # retried, then gave up
        assert any(isinstance(e, CircuitOpen) for e in excs)  # then shed fast
        stats = server.stats()
        assert stats["errors"]["model_failure"] >= 1
        assert stats["errors"]["circuit_open"] >= 1
        assert stats["errors"]["total"] >= 2
        assert stats["registry"]["breakers"]["bad"] == "open"

    def test_breaker_half_open_probe_recovers(self):
        t = [0.0]
        registry = ModelRegistry(
            breaker_opts={
                "failure_threshold": 1,
                "reset_timeout": 10.0,
                "clock": lambda: t[0],
            }
        )
        pot = HealsAfterLJ(1, epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
        registry.register("flaky", pot)
        server = ForceServer(
            registry,
            n_workers=1,
            max_batch=1,
            batch_wait=0.0,
            engine="eager",
            retry_policy=RetryPolicy(
                max_retries=0, base_delay=0.0, sleep=lambda _t: None
            ),
        )
        system = make_system(n=8, seed=3)
        f1 = server.submit(system, model="flaky")
        assert isinstance(f1.exception(timeout=10.0), ModelFailure)
        f2 = server.submit(system, model="flaky")
        assert isinstance(f2.exception(timeout=10.0), CircuitOpen)
        t[0] = 11.0  # cooldown elapses: next batch is the half-open probe
        f3 = server.submit(system, model="flaky")
        e, forces = f3.result(timeout=10.0)
        e0, f0 = direct_eager(make_lj(), system)
        assert e == e0
        np.testing.assert_array_equal(forces, f0)
        assert registry.get("flaky").breaker.state == "closed"
        server.stop()


class TestErrorBreakdown:
    def test_deadline_and_overload_classes_counted(self):
        pot = SlowLJ(delay=0.08, epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
        server = ForceServer(
            pot, n_workers=1, max_batch=1, batch_wait=0.0, max_queue=2,
            engine="eager",
        )
        f1 = server.submit(make_system(n=8, seed=0))
        f2 = server.submit(make_system(n=8, seed=1), deadline=0.005)
        shed = 0
        for k in range(10):
            try:
                server.submit(make_system(n=8, seed=2 + k))
            except ServerOverloaded:
                shed += 1
        assert shed >= 1
        server.stop(drain=True)
        assert f1.exception() is None
        assert isinstance(f2.exception(), DeadlineExceeded)
        errors = server.stats()["errors"]
        assert errors["deadline"] == 1
        assert server.stats()["counters"]["requests_expired"] == 1
        assert errors["overload"] >= 1
        assert errors["total"] >= errors["deadline"] + errors["overload"]

    def test_errors_block_present_in_snapshot_json(self):
        with ForceServer(make_lj(), n_workers=1) as server:
            Client(server).evaluate(make_system(n=10, seed=0))
            stats = server.stats()
        assert stats["errors"]["total"] == 0
        json.dumps(stats, default=float)


class TestDrainDeadline:
    def test_drain_deadline_fails_stuck_requests_explicitly(self):
        from repro.serve import DrainTimeout

        # A worker stuck far past the deadline: the neighbor-list build
        # sleeps longer than stop() is willing to wait.
        pot = SlowLJ(delay=1.5, epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
        server = ForceServer(
            pot, n_workers=1, max_batch=1, batch_wait=0.0, engine="eager"
        )
        futures = [server.submit(make_system(n=10, seed=k)) for k in range(3)]
        t0 = time.monotonic()
        server.stop(drain=True, timeout=0.1)
        # Shutdown is bounded: nowhere near the 4.5s the backlog needs.
        assert time.monotonic() - t0 < 1.4
        for fut in futures:
            assert fut.done(), "drain deadline must resolve every future"
        n_drained = sum(
            isinstance(f.exception(), DrainTimeout) for f in futures
        )
        assert n_drained >= 1
        stats = server.stats()
        assert stats["errors"]["drain_timeout"] == n_drained
        counters = stats["counters"]
        resolved = (
            counters.get("requests_served", 0)
            + counters.get("requests_failed", 0)
            + counters.get("requests_expired", 0)
        )
        # Accounting survives the abort: every admitted request resolved
        # exactly once, even the one a stalled worker still held.
        assert counters["requests_admitted"] == resolved == len(futures)

    def test_late_worker_cannot_double_complete(self):
        from repro.serve import DrainTimeout

        pot = SlowLJ(delay=0.4, epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
        server = ForceServer(
            pot, n_workers=1, max_batch=1, batch_wait=0.0, engine="eager"
        )
        fut = server.submit(make_system(n=10, seed=0))
        server.stop(drain=True, timeout=0.05)
        assert isinstance(fut.exception(), DrainTimeout)
        # Give the stalled worker time to wake up and try to finish the
        # batch; the InvalidStateError-safe completion paths must neither
        # crash nor double-count.
        time.sleep(0.6)
        counters = server.stats()["counters"]
        assert counters["requests_admitted"] == 1
        assert (
            counters.get("requests_served", 0)
            + counters.get("requests_failed", 0)
            + counters.get("requests_expired", 0)
        ) == 1

    @pytest.mark.parametrize("drain", [True, False], ids=["drain", "no_drain"])
    def test_held_and_queued_requests_resolve_exactly_once(self, drain):
        """One batch held by a stalled worker, three queued: stop() fails
        all four once, and the worker waking afterwards neither resolves
        nor counts anything again, nor evaluates the queued ones."""
        from repro.serve import DrainTimeout

        pot = SlowLJ(delay=0.4, epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
        server = ForceServer(
            pot, n_workers=1, max_batch=1, batch_wait=0.0, engine="eager"
        )
        futures = [server.submit(make_system(n=10, seed=k)) for k in range(4)]
        t0 = time.monotonic()
        while server.stats()["batcher"]["pending"] > 3 and time.monotonic() - t0 < 5:
            time.sleep(0.005)  # until the worker holds the first batch
        server.stop(drain=drain, timeout=0.1)
        for fut in futures:
            assert fut.done()
            assert isinstance(fut.exception(), DrainTimeout if drain else ServeError)
        time.sleep(0.6)  # the stalled worker wakes and finishes its batch
        stats = server.stats()
        counters = stats["counters"]
        assert counters["requests_admitted"] == len(futures)
        assert (
            counters.get("requests_served", 0)
            + counters.get("requests_failed", 0)
            + counters.get("requests_expired", 0)
        ) == len(futures)
        assert stats["errors"]["drain_timeout" if drain else "shutdown"] == len(futures)
        assert counters["batches"] == 1

    def test_deadline_unlimited_when_none(self):
        pot = SlowLJ(delay=0.05, epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)
        server = ForceServer(
            pot,
            n_workers=1,
            max_batch=1,
            batch_wait=0.0,
            engine="eager",
            drain_timeout=None,
        )
        futures = [server.submit(make_system(n=10, seed=k)) for k in range(3)]
        server.stop(drain=True)  # waits out the slow model
        assert all(f.exception() is None for f in futures)
        assert server.stats()["counters"].get("requests_served", 0) == 3
