"""Tests for precision emulation, the allocator simulator, and the perf model."""

import numpy as np
import pytest

import repro.autodiff as ad
from repro.data import water_unit_cell
from repro.models import AllegroConfig, AllegroModel
from repro.obs import Timer, time_callable
from repro.parallel import PerfModel, strong_scaling_curve, weak_scaling_curve
from repro.perf import (
    POLICIES,
    CachingAllocator,
    PaddingPolicy,
    apply_policy,
    policy_speed_factor,
    round_f32,
    simulate_md_allocation,
    truncate_tf32,
)
from repro.perf.precision import PrecisionPolicy


@pytest.fixture
def rng():
    return np.random.default_rng(103)


class TestPrecisionRounding:
    def test_round_f32_idempotent(self, rng):
        x = rng.normal(size=100)
        once = round_f32(x)
        assert np.allclose(round_f32(once), once)
        assert once.dtype == np.float64

    def test_tf32_coarser_than_f32(self, rng):
        x = rng.normal(size=1000) * 7
        err32 = np.abs(round_f32(x) - x).max()
        err_tf = np.abs(truncate_tf32(x) - x).max()
        assert err_tf > err32

    def test_tf32_relative_error_bound(self, rng):
        """10-bit mantissa: relative error ≤ 2^-11."""
        x = rng.normal(size=10000)
        rel = np.abs((truncate_tf32(x) - x) / x)
        assert rel.max() < 2.0**-10  # round-to-nearest within one ulp bound

    def test_tf32_preserves_exact_small_ints(self):
        x = np.array([0.0, 1.0, 2.0, -4.0, 0.5])
        assert np.allclose(truncate_tf32(x), x)

    def test_tf32_handles_nonfinite(self):
        x = np.array([np.inf, -np.inf, np.nan])
        out = truncate_tf32(x)
        assert np.isinf(out[0]) and np.isinf(out[1]) and np.isnan(out[2])

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            PrecisionPolicy("x", "f16", "f32", "f32")
        with pytest.raises(ValueError):
            PrecisionPolicy("x", "f64", "f32", "bf16")


class TestApplyPolicy:
    @pytest.fixture
    def model_and_system(self):
        model = AllegroModel(
            AllegroConfig(
                n_species=4,
                n_tensor=2,
                latent_dim=8,
                two_body_hidden=(8,),
                latent_hidden=(8,),
                edge_energy_hidden=(4,),
                r_cut=3.5,
                avg_num_neighbors=30,
            )
        )
        return model, water_unit_cell()

    def test_policies_perturb_but_do_not_break(self, model_and_system):
        model, w = model_and_system
        E0, F0 = model.energy_and_forces(w)
        frms = np.sqrt((F0**2).mean())
        for name, pol in POLICIES.items():
            with apply_policy(model, pol):
                E, F = model.energy_and_forces(w)
            rel = np.abs(F - F0).max() / frms
            assert np.isfinite(E)
            assert rel < 0.05, f"{name}: force perturbation {rel}"

    def test_f64_policy_is_exact(self, model_and_system):
        model, w = model_and_system
        E0, _ = model.energy_and_forces(w)
        with apply_policy(model, POLICIES["F64,F64,F64"]):
            E, _ = model.energy_and_forces(w)
        assert E == E0

    def test_state_fully_restored(self, model_and_system):
        model, w = model_and_system
        sd_before = model.state_dict()
        E0, _ = model.energy_and_forces(w)
        with apply_policy(model, POLICIES["F32,F32,TF32"]):
            model.energy_and_forces(w)
        for k, v in model.state_dict().items():
            assert np.array_equal(v, sd_before[k]), k
        assert ad.config.matmul_input_cast is None
        assert ad.config.final_dtype == np.float64
        E1, _ = model.energy_and_forces(w)
        assert E1 == E0

    def test_tf32_larger_error_than_f32_compute(self, model_and_system):
        model, w = model_and_system
        _, F0 = model.energy_and_forces(w)
        errs = {}
        for name in ("F64,F32,TF32", "F64,F32,F32"):
            with apply_policy(model, POLICIES[name]):
                _, F = model.energy_and_forces(w)
            errs[name] = np.abs(F - F0).max()
        assert errs["F64,F32,TF32"] > errs["F64,F32,F32"]


class TestSpeedModel:
    def test_matches_paper_row_shape(self):
        """Table IV speed row: 0.98×, 0.37×, 1×, 0.37×, 0.26×."""
        paper = {
            "F32,F32,TF32": 0.98,
            "F32,F32,F32": 0.37,
            "F64,F32,TF32": 1.0,
            "F64,F32,F32": 0.37,
            "F64,F64,F64": 0.26,
        }
        for name, expected in paper.items():
            modeled = policy_speed_factor(POLICIES[name])
            assert modeled == pytest.approx(expected, abs=0.06), name

    def test_tf32_speedup_factor(self):
        """Tensor cores buy >2× (paper: 2.7×)."""
        tf = policy_speed_factor(POLICIES["F64,F32,TF32"])
        f32 = policy_speed_factor(POLICIES["F64,F32,F32"])
        assert 2.0 < tf / f32 < 3.5


class TestAllocator:
    def test_cache_hit_after_free(self):
        a = CachingAllocator()
        h, c1 = a.malloc(10_000_000)
        a.free(h)
        h2, c2 = a.malloc(10_000_000)
        assert h2 == h
        assert c2 < c1
        assert a.n_hits == 1

    def test_relative_bucketing(self):
        a = CachingAllocator()
        assert a._round(100_000_000) == a._round(100_400_000)
        assert a._round(100_000_000) != a._round(110_000_000)

    def test_flush_under_pressure(self):
        a = CachingAllocator(capacity_bytes=1e6)
        handles = [a.malloc(300_000)[0] for _ in range(3)]
        for h in handles:
            a.free(h)
        a.malloc(900_000)
        assert a.n_flushes >= 1

    def test_padding_policy_monotone(self):
        p = PaddingPolicy(0.05)
        s1 = p.padded_size(1000)
        assert s1 == 1050
        assert p.padded_size(900) == s1  # shape stays constant
        assert p.padded_size(1100) > s1

    def test_padded_run_is_stable(self, rng):
        n = 800
        drift = 2000 * np.exp(-np.arange(n) / 150)
        pairs = (50_000 + drift + 500 * rng.normal(size=n)).astype(int)
        padded = simulate_md_allocation(pairs, padding=0.05)
        unpadded = simulate_md_allocation(pairs, padding=None)
        # Padding: early throughput within 10% of late throughput.
        assert padded[:100].mean() > 0.9 * padded[-100:].mean()
        # Unpadded pays more allocation cost during the warmup phase.
        assert unpadded[:100].mean() <= padded[:100].mean()

    def test_validation(self):
        with pytest.raises(ValueError):
            CachingAllocator(capacity_bytes=-1)


class TestPerfModel:
    def test_table3_calibration(self):
        """Modeled steps/s within 25% of each paper Table III entry."""
        pm = PerfModel()
        for nodes, paper in [(16, 6.28), (32, 11.9), (64, 20.3), (1024, 104.2)]:
            mine = pm.timesteps_per_second(1_119_744, nodes)
            assert abs(mine - paper) / paper < 0.25, (nodes, mine, paper)

    def test_saturation_plateau_near_100(self):
        """Strong scaling saturates around 100 steps/s (paper §VII-B)."""
        pm = PerfModel()
        peak = max(
            pm.timesteps_per_second(1_000_000, n) for n in (256, 512, 1024, 1280)
        )
        assert 80 < peak < 140

    def test_near_linear_before_saturation(self):
        pm = PerfModel()
        r16 = pm.timesteps_per_second(10_000_000, 16)
        r64 = pm.timesteps_per_second(10_000_000, 64)
        assert 3.0 < r64 / r16 <= 4.2

    def test_weak_scaling_efficiency_ordering(self):
        """Larger per-node sizes scale better (fig. 7)."""
        pm = PerfModel()
        effs = [
            weak_scaling_curve(pm, apn, [1, 1280])[-1][2]
            for apn in (25_000, 50_000, 75_000, 100_000)
        ]
        assert effs == sorted(effs)
        assert effs[-1] >= 0.70  # paper: "excess of 70%"

    def test_strong_scaling_clamps_to_memory(self):
        pm = PerfModel()
        curve = strong_scaling_curve(pm, 44_000_000, [16, 64, 256, 512, 1024, 1280])
        nodes = [n for n, _ in curve]
        assert min(nodes) >= 256  # 44M atoms cannot fit on 16 nodes
        assert pm.min_nodes(44_000_000) == pytest.approx(512, rel=0.15)

    def test_capsid_rate_matches_paper(self):
        pm = PerfModel()
        rate = pm.timesteps_per_second(44_000_000, 1280)
        assert rate == pytest.approx(8.73, rel=0.25)  # paper fig. 6

    def test_tts_vs_tight_binding_factor(self):
        """>1000× over tight binding (Table III headline)."""
        pm = PerfModel()
        ours = pm.timesteps_per_second(1_119_744, 64)
        tb = 0.020  # paper-quoted tight-binding steps/s on 64 nodes
        assert ours / tb > 1000

    def test_calibrate_throughput(self):
        pm = PerfModel()
        pm.calibrate_throughput(
            pairs_per_second_measured=1e5, pairs_per_atom=50, speedup=100
        )
        assert pm.spec.atoms_per_second_per_gpu == pytest.approx(2e5)
        with pytest.raises(ValueError):
            pm.calibrate_throughput(-1, 50, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            PerfModel(density=-1)


class TestTiming:
    def test_timer(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed > 0

    def test_time_callable(self):
        best, result = time_callable(lambda: 42, repeat=2)
        assert result == 42
        assert best >= 0
        with pytest.raises(ValueError):
            time_callable(lambda: 1, repeat=0)
