"""Tests for trajectory analysis: MSD, unwrapping, VACF, stability reports.

MSD/VACF run through the streaming folds (the one analysis stack); the
materialized all-origins sweeps they are compared against live here.
"""

import numpy as np
import pytest

from repro.md import (
    Cell,
    Simulation,
    System,
    diffusion_coefficient,
    stability_report,
)
from repro.models import LennardJones
from repro.traj import StreamingMSD, StreamingVACF


@pytest.fixture
def rng():
    return np.random.default_rng(181)


def _msd(frames, window=None, cell_lengths=None, atom_indices=None):
    fold = StreamingMSD(
        window if window is not None else len(frames) - 1, atom_indices=atom_indices
    )
    for f in frames:
        fold.update(f, cell_lengths)
    return fold.result()


def _vacf(velocities, window=None):
    fold = StreamingVACF(window if window is not None else len(velocities) - 1)
    for v in velocities:
        fold.update(v)
    return fold.result()


def _vacf_reference(velocities, max_lag):
    """Materialized VACF(τ) = ⟨v(0)·v(τ)⟩ / ⟨v²⟩ over atoms and origins."""
    v = np.stack(velocities)  # [T, N, 3]
    norm = float((v * v).sum(axis=-1).mean())
    out = np.ones(max_lag + 1)
    for lag in range(1, max_lag + 1):
        out[lag] = float((v[:-lag] * v[lag:]).sum(axis=-1).mean()) / norm
    return out


class TestMSD:
    def test_ballistic_motion_quadratic(self):
        """Constant-velocity atoms: MSD(τ) = v²τ²."""
        v = np.array([0.1, 0.0, 0.0])
        frames = [np.array([[0.0, 0, 0]]) + v * t for t in range(10)]
        msd = _msd(frames)
        taus = np.arange(10)
        assert np.allclose(msd, (0.1 * taus) ** 2, atol=1e-12)

    def test_random_walk_linear(self, rng):
        """Brownian steps: MSD grows linearly with lag."""
        steps = rng.normal(scale=0.1, size=(400, 50, 3))
        frames = np.cumsum(steps, axis=0)
        msd = _msd(list(frames), window=40)
        assert len(msd) == 41
        # slope ratio between halves ≈ 1 (linear).
        early = msd[10] / 10
        late = msd[40] / 40
        assert late == pytest.approx(early, rel=0.3)

    def test_atom_subset(self, rng):
        frames = [rng.normal(size=(6, 3)) for _ in range(5)]
        full = _msd(frames)
        sub = _msd(frames, atom_indices=np.arange(6))
        assert np.allclose(full, sub)
        half = _msd(frames, atom_indices=np.arange(3))
        assert np.allclose(half, _msd([f[:3] for f in frames]))

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingMSD(window=0)
        # One frame carries no displacement: lag 0 only.
        assert _msd([np.zeros((2, 3))], window=4).tolist() == [0.0]


class TestUnwrap:
    def test_crossing_reconstructed(self):
        L = np.array([10.0, 10.0, 10.0])
        # atom walks +1 per frame, wrapping at 10: unwrapped across the
        # boundary its MSD is the ballistic τ², not the wrapped sawtooth.
        wrapped = [np.array([[t % 10.0, 0.0, 0.0]]) for t in range(25)]
        msd = _msd(wrapped, cell_lengths=L)
        assert np.allclose(msd, np.arange(25.0) ** 2)
        assert not np.allclose(_msd(wrapped), msd)

    def test_no_wrap_is_identity(self, rng):
        frames = [rng.uniform(2, 8, (4, 3)) + 0.01 * t for t in range(5)]
        in_box = _msd(frames, cell_lengths=np.array([50.0, 50.0, 50.0]))
        assert np.array_equal(in_box, _msd(frames))


class TestDiffusion:
    def test_known_slope(self):
        dt = 2.0
        lags = np.arange(50)
        msd = 6 * 0.01 * lags * dt  # D = 0.01 Å²/fs
        assert diffusion_coefficient(msd, dt) == pytest.approx(0.01, rel=1e-6)

    def test_too_short(self):
        with pytest.raises(ValueError):
            diffusion_coefficient(np.zeros(3), 1.0)


class TestVACF:
    def test_starts_at_one_and_constant_velocity_stays(self, rng):
        v = rng.normal(size=(1, 8, 3)).repeat(10, axis=0)
        vacf = _vacf(list(v))
        assert vacf[0] == 1.0
        assert np.allclose(vacf, 1.0, atol=1e-12)

    def test_decorrelates_for_random_velocities(self, rng):
        v = [rng.normal(size=(200, 3)) for _ in range(60)]
        vacf = _vacf(v, window=10)
        assert vacf[0] == 1.0
        assert abs(vacf[5]) < 0.2
        assert np.allclose(vacf, _vacf_reference(v, 10), rtol=1e-10, atol=1e-12)


class TestStabilityReport:
    def _run(self, rng, temperature):
        n_side, a = 4, 1.7
        g = (
            np.stack(np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), -1)
            .reshape(-1, 3) * a
        )
        s = System(
            g + rng.normal(scale=0.02, size=g.shape),
            np.zeros(len(g), int),
            Cell.cubic(n_side * a),
        )
        s.seed_velocities(temperature, rng)
        lj = LennardJones(epsilon=0.05, sigma=1.5, cutoff=3.0)
        return Simulation(s, lj, dt=0.2).run(60)

    def test_healthy_run(self, rng):
        res = self._run(rng, 40.0)
        report = stability_report(res)
        assert not report.exploded
        assert "stable" in str(report)
        assert report.energy_drift_per_atom < 1e-2

    def test_explosion_detected(self, rng):
        res = self._run(rng, 40.0)
        res.temperatures[-1] = 1e6  # simulate a blown-up trajectory
        report = stability_report(res)
        assert report.exploded
        assert "UNSTABLE" in str(report)

    def test_displacement_tracked(self, rng):
        res = self._run(rng, 40.0)
        frames = [np.zeros((3, 3)), np.ones((3, 3))]
        report = stability_report(res, frames=frames)
        assert report.max_displacement == pytest.approx(np.sqrt(3.0))
