"""Integration tests of the MD engine: NVE conservation, thermostats, I/O."""

import numpy as np
import pytest

from repro.md import (
    BerendsenThermostat,
    Cell,
    LangevinThermostat,
    Simulation,
    System,
    energy_drift_per_atom,
    read_xyz,
    write_xyz_frame,
)
from repro.cli.traj import rtrj_to_xyz
from repro.models import LennardJones


@pytest.fixture
def rng():
    return np.random.default_rng(71)


def _lj_crystal(rng, n_side=4, a=1.7, jitter=0.02):
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


class TestNVE:
    def test_energy_conservation(self, rng):
        s, lj = _lj_crystal(rng)
        s.seed_velocities(30.0, rng)
        sim = Simulation(s, lj, dt=0.2)
        res = sim.run(300)
        assert energy_drift_per_atom(res.total_energies, s.n_atoms) < 1e-5
        assert res.total_energies.std() < 1e-3

    def test_drift_scales_quadratically_with_dt(self, rng):
        drifts = []
        for dt in (0.4, 0.1):
            s, lj = _lj_crystal(np.random.default_rng(5))
            s.seed_velocities(30.0, np.random.default_rng(6))
            res = Simulation(s, lj, dt=dt).run(int(40 / dt))
            drifts.append(energy_drift_per_atom(res.total_energies, s.n_atoms))
        # dt reduced 4×: symplectic integrator gives ≥ ~10× smaller drift.
        assert drifts[1] < drifts[0] / 8

    def test_momentum_conserved(self, rng):
        s, lj = _lj_crystal(rng)
        s.seed_velocities(50.0, rng)
        p0 = (s.masses[:, None] * s.velocities).sum(axis=0)
        Simulation(s, lj, dt=0.2).run(100)
        p1 = (s.masses[:, None] * s.velocities).sum(axis=0)
        assert np.allclose(p0, p1, atol=1e-10)

    def test_result_metadata(self, rng):
        s, lj = _lj_crystal(rng)
        res = Simulation(s, lj, dt=0.2).run(20, record_every=5)
        assert res.n_steps == 20
        assert len(res.times) == 4
        assert res.timesteps_per_second > 0
        assert (res.pair_counts > 0).all()


class TestThermostats:
    def test_langevin_reaches_target(self, rng):
        s, lj = _lj_crystal(rng)
        s.seed_velocities(100.0, rng)
        thermo = LangevinThermostat(300.0, friction=0.05, seed=3)
        sim = Simulation(s, lj, dt=0.5, thermostat=thermo)
        res = sim.run(600)
        assert abs(res.temperatures[-200:].mean() - 300.0) < 60.0

    def test_berendsen_rescales_toward_target(self, rng):
        s, lj = _lj_crystal(rng)
        s.seed_velocities(600.0, rng)
        thermo = BerendsenThermostat(300.0, tau=20.0)
        sim = Simulation(s, lj, dt=0.5, thermostat=thermo)
        res = sim.run(300)
        assert abs(res.temperatures[-50:].mean() - 300.0) < 80.0

    def test_langevin_validation(self):
        with pytest.raises(ValueError):
            LangevinThermostat(-1.0)
        with pytest.raises(ValueError):
            LangevinThermostat(300.0, friction=0.0)
        with pytest.raises(ValueError):
            BerendsenThermostat(300.0, tau=-1.0)

    def test_langevin_deterministic_with_seed(self, rng):
        temps = []
        for _ in range(2):
            s, lj = _lj_crystal(np.random.default_rng(9))
            s.seed_velocities(200.0, np.random.default_rng(10))
            sim = Simulation(
                s, lj, dt=0.5, thermostat=LangevinThermostat(300.0, seed=4)
            )
            temps.append(sim.run(50).temperatures)
        assert np.allclose(temps[0], temps[1])


class TestCallbacksAndRecording:
    def test_callback_invoked(self, rng):
        s, lj = _lj_crystal(rng)
        seen = []
        sim = Simulation(s, lj, dt=0.2)
        sim.add_callback(lambda step, _sim: seen.append(step))
        sim.run(5)
        assert seen == [1, 2, 3, 4, 5]

    def test_trajectory_roundtrip(self, rng, tmp_path):
        s, lj = _lj_crystal(rng)
        s.species_names = ["C"]
        # The loop dumps .rtrj only; XYZ is its conversion.
        path = tmp_path / "traj.xyz"
        sim = Simulation(s, lj, dt=0.2)
        sim.run(6, dump_every=2, dump_path=tmp_path / "traj.rtrj")
        assert rtrj_to_xyz(tmp_path / "traj.rtrj", path) == 3
        frames = read_xyz(path, ["C"])
        assert len(frames) == 3
        assert frames[0].n_atoms == s.n_atoms
        assert np.allclose(frames[0].cell.lengths, s.cell.lengths)
        assert np.allclose(frames[-1].positions, s.positions, atol=1e-8)

    def test_in_memory_recording(self, rng):
        s, lj = _lj_crystal(rng)
        # Frames wanted in memory are collected by a callback.
        frames = []
        sim = Simulation(s, lj, dt=0.2)
        sim.add_callback(lambda step, sim: frames.append(sim.system.positions.copy()))
        sim.run(4)
        assert len(frames) == 4
        assert frames[0].shape == (s.n_atoms, 3)
        assert not np.array_equal(frames[0], frames[-1])

    def test_write_xyz_format(self, rng, tmp_path):
        s = System(
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            np.array([0, 1]),
            Cell.cubic(5.0),
            species_names=("H", "O"),
        )
        path = tmp_path / "one.xyz"
        with open(path, "w") as fh:
            write_xyz_frame(fh, s, {"step": 7})
        lines = path.read_text().splitlines()
        assert lines[0] == "2"
        assert "step=7" in lines[1] and "Lattice=" in lines[1]
        assert lines[2].startswith("H ")
        assert lines[3].startswith("O ")
