"""The unified observability layer: registry, spans, timing, JSON export.

Covers the contracts every other layer now leans on:

* one ``Registry`` type (counters/gauges/histograms, labeled metrics)
  shared by serve, engine, MD, parallel, and training instrumentation;
* hierarchical span tracing with a bounded buffer, phase aggregation,
  and a true no-op when disabled;
* hardened ``Histogram.percentile`` (defined for empty/single-sample
  histograms, clamped q — property-tested with hypothesis);
* deterministic stats/trace JSON (sorted keys, stable floats,
  ``schema_version``);
* thread-safety under a ≥8-thread hammer with exact final totals.
"""

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import (
    LATENCY_BUCKETS,
    OCCUPANCY_BUCKETS,
    Histogram,
    Registry,
    Timer,
    Tracer,
    labeled_name,
    stable_floats,
    time_callable,
    to_json,
)


@pytest.fixture
def tracer():
    """A fresh enabled tracer installed as the process-global one."""
    t = Tracer(enabled=True, max_traces=16)
    old = obs.set_tracer(t)
    yield t
    obs.set_tracer(old)


# ---------------------------------------------------------------------------
# Registry: counters, gauges, labels
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_get_or_create(self):
        reg = Registry()
        c = reg.counter("events")
        c.inc()
        reg.counter("events").inc(4)
        assert reg.counter("events").value == 5

    def test_gauge_set_inc_dec(self):
        reg = Registry()
        g = reg.gauge("arena_bytes")
        g.set(100.0)
        g.inc(28.0)
        g.dec(8.0)
        assert g.value == 120.0
        assert reg.gauge("arena_bytes") is g

    def test_labeled_metrics_are_distinct(self):
        reg = Registry()
        reg.counter("comm.bytes", labels={"category": "halo"}).inc(10)
        reg.counter("comm.bytes", labels={"category": "migrate"}).inc(3)
        snap = reg.snapshot()
        assert snap["counters"]["comm.bytes{category=halo}"] == 10
        assert snap["counters"]["comm.bytes{category=migrate}"] == 3

    def test_labeled_name_sorts_keys(self):
        a = labeled_name("m", {"b": 1, "a": 2})
        b = labeled_name("m", {"a": 2, "b": 1})
        assert a == b == "m{a=2,b=1}"
        assert labeled_name("m", None) == "m"
        assert labeled_name("m", {}) == "m"

    def test_snapshot_prefix_filters_one_layer(self):
        reg = Registry()
        reg.counter("md.steps").inc(7)
        reg.counter("engine.captures").inc(2)
        reg.gauge("engine.arena_bytes").set(64)
        snap = reg.snapshot(prefix="engine.")
        assert "md.steps" not in snap["counters"]
        assert snap["counters"]["engine.captures"] == 2
        assert snap["gauges"]["engine.arena_bytes"] == 64

    def test_snapshot_has_schema_version(self):
        assert Registry().snapshot()["schema_version"] == 1

    def test_delta_since(self):
        reg = Registry()
        reg.counter("a").inc(2)
        before = reg.snapshot()
        reg.counter("a").inc(3)
        reg.counter("b").inc(1)
        delta = Registry.delta_since(before, reg.snapshot())
        assert delta == {"a": 3, "b": 1}


# ---------------------------------------------------------------------------
# Histogram hardening
# ---------------------------------------------------------------------------


class TestHistogramPercentile:
    def make(self):
        return Histogram("h", (1.0, 2.0, 4.0, 8.0), threading.RLock())

    def test_empty_histogram_is_defined(self):
        h = self.make()
        assert h.percentile(0.5) == 0.0
        assert h.percentile(0.0) == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0 and snap["min"] is None

    def test_single_observation_reports_it_exactly(self):
        h = self.make()
        h.observe(3.25)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.percentile(q) == 3.25

    def test_identical_observations_report_the_value(self):
        h = self.make()
        for _ in range(10):
            h.observe(2.5)
        assert h.percentile(0.5) == 2.5

    def test_q_clamped_outside_unit_interval(self):
        h = self.make()
        for x in (0.5, 1.5, 3.0, 7.0):
            h.observe(x)
        assert h.percentile(-0.3) == h.percentile(0.0)
        assert h.percentile(1.7) == h.percentile(1.0)
        assert h.percentile(1.0) == pytest.approx(7.0)

    def test_nan_q_raises(self):
        h = self.make()
        h.observe(1.0)
        with pytest.raises(ValueError, match="NaN"):
            h.percentile(float("nan"))

    @pytest.mark.parametrize("bounds", [LATENCY_BUCKETS, OCCUPANCY_BUCKETS, (0.5,)])
    def test_bucket_of_values_on_between_and_beyond_every_bound(self, bounds):
        """``observe`` files x under the first bound >= x (the scan over the
        bounds it used to do), the overflow bucket past the last."""
        def scan(x):
            for i, b in enumerate(bounds):
                if x <= b:
                    return i
            return len(bounds)

        edges = [float(b) for b in bounds]
        values = [-1.0, 0.0, edges[0] / 2, edges[-1] * 2, float("inf")]
        for lo, hi in zip(edges, edges[1:] + [edges[-1] * 2]):
            values += [lo, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf), (lo + hi) / 2]
        h = Histogram("h", bounds, threading.RLock())
        want = [0] * (len(bounds) + 1)
        for x in values:
            assert h._bucket_index(x) == scan(x), x
            h.observe(x)
            want[scan(x)] += 1
        buckets = h.snapshot()["buckets"]
        assert list(buckets.values()) == want and buckets["overflow"] == want[-1]

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", (2.0, 1.0), threading.RLock())
        with pytest.raises(ValueError):
            Histogram("h", (1.0, 1.0), threading.RLock())
        with pytest.raises(ValueError):
            Histogram("h", (), threading.RLock())

    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=1e-6, max_value=1e3), min_size=0, max_size=40
        ),
        q=st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
    )
    def test_percentile_always_finite_and_bounded(self, samples, q):
        h = Histogram("h", LATENCY_BUCKETS, threading.RLock())
        for x in samples:
            h.observe(x)
        p = h.percentile(q)
        assert np.isfinite(p)
        if samples:
            assert min(samples) - 1e-9 <= p <= max(samples) + 1e-9
        else:
            assert p == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=1e-6, max_value=1e3), min_size=2, max_size=40
        ),
        qs=st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
    )
    def test_percentile_monotone_in_q(self, samples, qs):
        h = Histogram("h", LATENCY_BUCKETS, threading.RLock())
        for x in samples:
            h.observe(x)
        lo, hi = sorted(qs)
        assert h.percentile(lo) <= h.percentile(hi) + 1e-12


# ---------------------------------------------------------------------------
# Span tracing
# ---------------------------------------------------------------------------


class TestTracing:
    def test_disabled_span_is_shared_nop(self):
        t = Tracer(enabled=False)
        s1, s2 = t.span("a"), t.span("b")
        assert s1 is s2  # one shared no-op object, no allocation
        with s1 as sp:
            sp.add("pairs", 10)
        assert t.phase_totals() == {}

    def test_global_span_nop_when_disabled(self, tracer):
        tracer.disable()
        with obs.span("md.step") as sp:
            sp.add("pairs", 1)
        assert tracer.phase_totals() == {}

    def test_nesting_builds_parent_qualified_paths(self, tracer):
        with obs.span("md.step"):
            with obs.span("md.force"):
                pass
            with obs.span("md.neighbor"):
                pass
        totals = tracer.phase_totals()
        assert set(totals) == {
            "md.step",
            "md.step/md.force",
            "md.step/md.neighbor",
        }
        assert totals["md.step"]["count"] == 1
        assert totals["md.step"]["total_s"] >= (
            totals["md.step/md.force"]["total_s"]
        )

    def test_per_span_counters_export(self, tracer):
        with obs.span("md.step") as sp:
            sp.add("pairs", 100)
            sp.add("pairs", 20)
            sp.add("rebuilds")
        doc = tracer.export()
        root = doc["traces"][-1]
        assert root["counters"] == {"pairs": 120, "rebuilds": 1}

    def test_trace_buffer_is_bounded(self, tracer):
        for _ in range(50):
            with obs.span("md.step"):
                pass
        doc = tracer.export()
        assert doc["n_traces_recorded"] == 50
        assert doc["n_traces_buffered"] == 16  # max_traces
        assert doc["n_traces_dropped"] == 34
        # Dropped roots still contribute to the aggregates.
        assert tracer.phase_totals()["md.step"]["count"] == 50

    def test_phase_totals_prefix(self, tracer):
        with obs.span("md.step"):
            pass
        with obs.span("train.epoch"):
            pass
        assert list(tracer.phase_totals("train.")) == ["train.epoch"]

    def test_export_tree_shape(self, tracer):
        with obs.span("parent"):
            with obs.span("child"):
                pass
        root = tracer.export()["traces"][-1]
        assert root["name"] == "parent"
        assert [c["name"] for c in root["children"]] == ["child"]
        child = root["children"][0]
        assert 0.0 <= child["t_offset_s"] <= root["duration_s"]
        assert child["duration_s"] <= root["duration_s"]

    def test_threads_get_independent_stacks(self, tracer):
        seen = []

        def worker():
            with obs.span("worker.task"):
                pass
            seen.append(True)

        with obs.span("main.outer"):
            th = threading.Thread(target=worker)
            th.start()
            th.join()
        totals = tracer.phase_totals()
        # The worker's span must NOT nest under the main thread's span.
        assert "worker.task" in totals
        assert "main.outer/worker.task" not in totals

    def test_format_phases_table(self, tracer):
        with obs.span("md.step"):
            with obs.span("md.force"):
                pass
        table = tracer.format_phases("md.")
        assert "phase" in table and "calls" in table and "share" in table
        assert "md.step" in table
        assert Tracer().format_phases().startswith("(no spans")

    def test_clear_resets_buffers_not_enabled_flag(self, tracer):
        with obs.span("a"):
            pass
        tracer.clear()
        assert tracer.enabled
        assert tracer.phase_totals() == {}
        assert tracer.export()["n_traces_recorded"] == 0

    def test_enable_resizes_buffer(self, tracer):
        obs.enable(max_traces=4)
        for _ in range(10):
            with obs.span("s"):
                pass
        assert tracer.export()["n_traces_buffered"] == 4


# ---------------------------------------------------------------------------
# Timing primitives
# ---------------------------------------------------------------------------


class TestTiming:
    def test_timer_measures(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed >= 0.0

    def test_time_callable(self):
        best, result = time_callable(lambda: 42, repeat=2)
        assert result == 42
        assert best >= 0.0
        with pytest.raises(ValueError):
            time_callable(lambda: 1, repeat=0)


# ---------------------------------------------------------------------------
# Deterministic JSON
# ---------------------------------------------------------------------------


class TestDeterministicJson:
    def test_sorted_keys_and_schema_version(self):
        s = to_json({"zebra": 1, "alpha": 2})
        doc = json.loads(s)
        assert doc["schema_version"] == 1
        assert list(doc) == sorted(doc)
        assert s.index('"alpha"') < s.index('"zebra"')

    def test_stable_floats_normalizes(self):
        assert stable_floats(0.1 + 0.2) == 0.3
        assert stable_floats(True) is True  # bool is not coerced to int
        assert stable_floats(np.float64(1.5)) == 1.5
        assert isinstance(stable_floats(np.int64(3)), int)
        assert stable_floats(np.arange(3)) == [0, 1, 2]
        nested = stable_floats({"a": [np.float32(2.0), {"b": (1, 2.5)}]})
        assert nested == {"a": [2.0, {"b": [1, 2.5]}]}

    def test_identical_payloads_serialize_identically(self):
        a = to_json({"x": 1.0000000000001, "y": [3.14159, {"k": 2}]})
        b = to_json({"y": [3.14159, {"k": 2}], "x": 1.0000000000001})
        assert a == b

    def test_registry_to_json_roundtrips(self):
        reg = Registry()
        reg.counter("md.steps").inc(3)
        reg.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        doc = json.loads(reg.to_json())
        assert doc["counters"]["md.steps"] == 3
        assert doc["schema_version"] == 1

    def test_write_json_deterministic_on_disk(self, tmp_path):
        reg = Registry()
        reg.counter("a").inc(1)
        reg.gauge("g").set(2.5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        reg.write_json(p1)
        reg.write_json(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tracer_export_json_has_schema(self, tmp_path, tracer):
        with obs.span("x"):
            pass
        path = tmp_path / "trace.json"
        tracer.write_json(path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["phases"]["x"]["count"] == 1


# ---------------------------------------------------------------------------
# Thread-safety hammer
# ---------------------------------------------------------------------------


class TestConcurrency:
    N_THREADS = 8
    N_OPS = 2000

    def test_registry_hammer_exact_totals(self):
        reg = Registry()
        snapshots = []
        barrier = threading.Barrier(self.N_THREADS + 1)

        def worker(k):
            barrier.wait()
            c = reg.counter("hits")
            mine = reg.counter("hits", labels={"thread": str(k)})
            h = reg.histogram("lat", buckets=(0.25, 0.5, 1.0))
            g = reg.gauge("depth")
            for i in range(self.N_OPS):
                c.inc()
                mine.inc()
                h.observe((i % 4) / 4.0)
                g.inc()
                g.dec()

        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        # Snapshot mid-flight: must be internally consistent, never raise.
        for _ in range(20):
            snapshots.append(reg.snapshot())
        for t in threads:
            t.join()

        snap = reg.snapshot()
        total = self.N_THREADS * self.N_OPS
        assert snap["counters"]["hits"] == total
        for k in range(self.N_THREADS):
            assert snap["counters"][f"hits{{thread={k}}}"] == self.N_OPS
        hist = snap["histograms"]["lat"]
        assert hist["count"] == total
        assert sum(hist["buckets"].values()) == total
        assert snap["gauges"]["depth"] == 0.0
        # Mid-flight snapshots: monotone counters, buckets sum to count.
        last = 0
        for s in snapshots:
            n = s["counters"].get("hits", 0)
            assert n >= last
            last = n
            lat = s["histograms"].get("lat")
            if lat is not None:
                assert sum(lat["buckets"].values()) == lat["count"]

    def test_tracer_hammer(self):
        t = Tracer(enabled=True, max_traces=8)
        barrier = threading.Barrier(self.N_THREADS)

        def worker():
            barrier.wait()
            for _ in range(200):
                with t.span("outer"):
                    with t.span("inner"):
                        pass

        threads = [
            threading.Thread(target=worker) for _ in range(self.N_THREADS)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        totals = t.phase_totals()
        assert totals["outer"]["count"] == self.N_THREADS * 200
        assert totals["outer/inner"]["count"] == self.N_THREADS * 200
        assert t.export()["n_traces_buffered"] == 8


# ---------------------------------------------------------------------------
# Cross-layer integration: one registry tree, spans through the hot paths
# ---------------------------------------------------------------------------


class TestIntegration:
    def _lj_sim(self, registry=None, engine="eager"):
        from repro.md import Cell, Simulation, System
        from repro.models import LennardJones

        rng = np.random.default_rng(0)
        n = 27
        grid = np.stack(
            np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        positions = 1.7 * grid + rng.normal(scale=0.02, size=(n, 3))
        system = System(positions, np.zeros(n, dtype=int), Cell.cubic(5.1))
        system.velocities = rng.normal(scale=0.05, size=(n, 3))
        return Simulation(
            system,
            LennardJones(epsilon=0.05, sigma=1.2, cutoff=2.0),
            dt=0.2,
            engine=engine,
            registry=registry,
        )

    def test_md_steps_and_spans_land_in_one_registry(self, tracer):
        reg = Registry()
        sim = self._lj_sim(registry=reg, engine="compiled")
        sim.run(5)
        snap = reg.snapshot()
        assert snap["counters"]["md.steps"] == 5
        # Engine counters share the same tree (one Registry underlies both).
        assert snap["counters"]["engine.captures"] >= 1
        assert snap["gauges"]["engine.arena_bytes"] > 0
        totals = tracer.phase_totals("md.")
        assert totals["md.step"]["count"] == 5
        assert totals["md.step/md.force"]["count"] == 5
        assert totals["md.step/md.force/engine.replay"]["count"] >= 1

    def test_simulation_stats_is_registry_view(self):
        sim = self._lj_sim(engine="compiled")
        sim.run(3)
        stats = sim.stats()
        assert stats["counters"]["md.steps"] == 3
        assert stats["engine_stats"]["n_replays"] >= 1
        assert stats["schema_version"] == 1

    def test_parallel_driver_shares_registry_tree(self):
        from repro.md import Cell, System
        from repro.models import LennardJones
        from repro.parallel import ParallelSimulation

        rng = np.random.default_rng(1)
        n = 32
        system = System(
            rng.uniform(0, 7.0, size=(n, 3)),
            np.zeros(n, dtype=int),
            Cell.cubic(7.0),
        )
        system.velocities = rng.normal(scale=0.02, size=(n, 3))
        reg = Registry()
        sim = ParallelSimulation(
            system,
            LennardJones(epsilon=0.05, sigma=1.5, cutoff=2.5),
            n_ranks=4,
            dt=0.2,
            registry=reg,
        )
        sim.run(2)
        snap = reg.snapshot()
        halo = [
            k for k in snap["counters"]
            if k.startswith("comm.bytes{category=halo")
        ]
        assert halo, f"no halo traffic counters in {sorted(snap['counters'])}"
        assert sim.evaluator.resilience_stats()["n_failures"] == 0
        assert sim.stats()["counters"] == snap["counters"]

    def test_trainer_counters_live_in_registry(self):
        from repro.data import conformation_dataset, label_frames
        from repro.models import ClassicalConfig, ClassicalForceField
        from repro.nn import TrainConfig, Trainer

        frames = label_frames(
            conformation_dataset(6, n_heavy=3, seed=4, sigma=0.05)
        )
        reg = Registry()
        tr = Trainer(
            ClassicalForceField(ClassicalConfig(n_species=4, r_cut=3.5)),
            frames,
            config=TrainConfig(
                lr=1e-2, batch_size=4, seed=0, grad_clip_norm=1e-9
            ),
            registry=reg,
        )
        tr.fit(1)
        assert reg.snapshot()["counters"]["train.clip_events"] >= 1
        assert tr.stats()["n_clip_events"] >= 1
