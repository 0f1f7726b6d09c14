"""Online-controller overhead: ticking controllers must cost <1% steps/s.

The hysteresis controllers are off by default; when enabled they are
ticked once per MD step (and per serve batch) from the hot loop.  That
placement is only acceptable if a tick — EWMA update, dwell check, the
occasional bounded knob move — is effectively free.  A 125-atom LJ NVT
workload, interleaved off/on runs, medians, with a RepadController
attached to the compiled engine in the "on" runs.
"""

import numpy as np

from conftest import fmt_table
from repro.md import Cell, LangevinThermostat, Simulation, System
from repro.models import LennardJones
from repro.tune import ControllerSet, RepadController

N_STEPS = 200
REPEATS = 7


def make_sim(with_controllers):
    rng = np.random.default_rng(7)
    n_side, a = 5, 1.7
    grid = np.stack(
        np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    positions = a * grid + rng.normal(scale=0.02, size=(n_side**3, 3))
    system = System(
        positions, np.zeros(n_side**3, dtype=int), Cell.cubic(a * n_side)
    )
    system.velocities = rng.normal(scale=0.05, size=positions.shape)
    sim = Simulation(
        system,
        LennardJones(epsilon=0.05, sigma=1.5, cutoff=3.0),
        dt=0.2,
        thermostat=LangevinThermostat(30.0, friction=0.05, seed=3),
        engine="compiled",
    )
    if with_controllers:
        sim.controllers = ControllerSet(
            [RepadController(sim._evaluator)]
        ).bind(sim.obs)
    return sim


def run_once(with_controllers):
    return make_sim(with_controllers).run(N_STEPS).timesteps_per_second


def test_controller_tick_overhead(reporter, benchmark):
    run_once(False), run_once(True)  # warmup both paths
    bare_rates, ticked_rates = [], []
    for _ in range(REPEATS):
        bare_rates.append(run_once(False))
        ticked_rates.append(run_once(True))
    bare = float(np.median(bare_rates))
    ticked = float(np.median(ticked_rates))
    overhead = 1.0 - ticked / bare

    rows = [
        ("controllers off", f"{bare:.1f}", "-"),
        ("controllers on", f"{ticked:.1f}", f"{100 * overhead:+.1f}%"),
    ]
    reporter(
        "tune_overhead",
        fmt_table(
            ["config", f"steps/s (median of {REPEATS})", "overhead"],
            rows,
            title=f"Controller-tick overhead, 125-atom LJ NVT, {N_STEPS} steps",
        ),
        data={"bare": bare, "ticked": ticked, "overhead": overhead},
    )

    assert overhead < 0.01, (
        f"controller ticking lost {100 * overhead:.2f}% steps/s (budget: 1%)"
    )

    sim = make_sim(True)
    benchmark.pedantic(lambda: sim.run(5), rounds=2, iterations=1)
