"""Tests for the Nosé–Hoover thermostat."""

import numpy as np
import pytest

from repro.md import Cell, NoseHooverThermostat, Simulation, System
from repro.models import LennardJones


@pytest.fixture
def rng():
    return np.random.default_rng(229)


class TestNoseHoover:
    def _crystal(self, rng):
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
        return s, LennardJones(epsilon=0.05, sigma=1.5, cutoff=3.0)

    def test_drives_temperature_to_target(self, rng):
        s, lj = self._crystal(rng)
        s.seed_velocities(80.0, rng)
        nh = NoseHooverThermostat(250.0, tau=25.0)
        res = Simulation(s, lj, dt=0.4, thermostat=nh).run(500)
        assert abs(res.temperatures[-150:].mean() - 250.0) < 60.0

    def test_deterministic(self, rng):
        runs = []
        for _ in range(2):
            s, lj = self._crystal(np.random.default_rng(7))
            s.seed_velocities(100.0, np.random.default_rng(8))
            nh = NoseHooverThermostat(200.0, tau=30.0)
            runs.append(Simulation(s, lj, dt=0.4, thermostat=nh).run(40).temperatures)
        assert np.array_equal(runs[0], runs[1])

    def test_friction_sign_follows_temperature_error(self, rng):
        s, lj = self._crystal(rng)
        s.seed_velocities(500.0, rng)  # far above target
        nh = NoseHooverThermostat(100.0, tau=20.0)
        nh.apply(s, 0.5)
        assert nh.xi > 0  # heating excess -> positive friction

    def test_validation(self):
        with pytest.raises(ValueError):
            NoseHooverThermostat(-10.0)
        with pytest.raises(ValueError):
            NoseHooverThermostat(300.0, tau=0.0)
