#!/usr/bin/env python
"""Checkpoint/restart: kill an MD run mid-flight, resume it bitwise.

Long biomolecular runs (the paper's 44M-atom HIV capsid trajectories run
for days) only finish because they survive node failures.  The contract
that makes restart *trustworthy* is exactness: a trajectory resumed from
a checkpoint must be bitwise identical (float64) to the run that never
died — otherwise a crash silently changes the science.

This script demonstrates the contract end to end:

1. run a reference NVT trajectory with no interruptions,
2. run the same trajectory with periodic checkpointing, "crash" it
   partway through (simply stop driving it), and
3. resume from the latest surviving checkpoint file with a *fresh*
   Simulation object, then compare final positions/velocities bitwise.

Step 3 also shows the watchdog: a fault plan corrupts one force
evaluation with NaN, and the ``recover`` policy rolls back to the last
checkpoint and replays — landing on the same bitwise trajectory.

Run:  python examples/checkpoint_restart.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.md import (
    Cell,
    LangevinThermostat,
    Simulation,
    System,
)
from repro.models import LennardJones
from repro.resilience import CheckpointManager, FaultPlan, FaultyPotential, ForceWatchdog
from repro.resilience.faults import POTENTIAL_CORRUPT

TOTAL_STEPS = 60
KILL_AT = 23
CHECKPOINT_EVERY = 10


def make_sim(potential=None, watchdog=None):
    """A 64-atom LJ crystal under a Langevin thermostat (seeded)."""
    rng = np.random.default_rng(7)
    a, n_side = 1.7, 4
    grid = np.stack(
        np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    positions = a * grid + rng.normal(scale=0.02, size=(n_side**3, 3))
    system = System(
        positions, np.zeros(n_side**3, dtype=int), Cell.cubic(a * n_side)
    )
    system.velocities = rng.normal(scale=0.05, size=system.positions.shape)
    pot = potential or LennardJones(epsilon=0.05, sigma=1.5, cutoff=3.0)
    thermostat = LangevinThermostat(30.0, friction=0.05, seed=3)
    return Simulation(
        system, pot, dt=0.2, thermostat=thermostat, watchdog=watchdog
    )


def main() -> None:
    print(f"1. reference run: {TOTAL_STEPS} uninterrupted steps ...")
    ref = make_sim()
    ref.run(TOTAL_STEPS)

    with tempfile.TemporaryDirectory() as tmp:
        ckpt_dir = Path(tmp) / "checkpoints"

        print(f"2. checkpointed run, killed at step {KILL_AT} ...")
        sim = make_sim()
        sim.run(KILL_AT, checkpoint_every=CHECKPOINT_EVERY, checkpoint_dir=ckpt_dir)
        del sim  # the "crash": all in-memory state is gone

        manager = CheckpointManager(ckpt_dir)
        step, state = manager.load_latest()
        print(f"   latest surviving checkpoint: step {step} "
              f"({len(list(ckpt_dir.glob('ckpt-*')))} files on disk)")

        print("3. resuming from the checkpoint with a fresh Simulation ...")
        resumed = make_sim()
        resumed.set_state(state)
        resumed.run(
            TOTAL_STEPS - resumed.step_count,
            checkpoint_every=CHECKPOINT_EVERY,
            checkpoint_manager=manager,
        )

        np.testing.assert_array_equal(
            resumed.system.positions, ref.system.positions
        )
        np.testing.assert_array_equal(
            resumed.system.velocities, ref.system.velocities
        )
        print("   resumed trajectory is BITWISE identical to the reference.")

    with tempfile.TemporaryDirectory() as tmp:
        print("4. watchdog recovery: NaN forces injected at step 40 ...")
        plan = FaultPlan(at={POTENTIAL_CORRUPT: [39]})
        faulty = FaultyPotential(
            LennardJones(epsilon=0.05, sigma=1.5, cutoff=3.0), plan
        )
        guarded = make_sim(
            potential=faulty,
            watchdog=ForceWatchdog(policy="recover", spike_factor=None),
        )
        guarded.run(
            TOTAL_STEPS,
            checkpoint_every=CHECKPOINT_EVERY,
            checkpoint_dir=Path(tmp) / "checkpoints",
        )
        np.testing.assert_array_equal(
            guarded.system.positions, ref.system.positions
        )
        print(f"   recovered {guarded.stats()['n_recoveries']}x by rolling back to the "
              "last checkpoint; final state still bitwise identical.")

    print("done.")


if __name__ == "__main__":
    main()
