"""Energy minimization: damped descent with displacement capping.

Structure preparation for MD: generated structures (grid-solvated
proteins, jittered lattices) carry strain that would otherwise be released
as heat at step 0.  The minimizer is a FIRE-flavored steepest descent —
adaptive step size, per-atom displacement cap, backtracking on energy
increase — robust for the stiff short-range forces of molecular systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neighborlist import VerletList, model_cutoff
from .system import System


@dataclass
class MinimizeResult:
    energies: np.ndarray  # energy per accepted iteration
    n_iterations: int
    converged: bool
    max_force: float  # final max |F| component (eV/Å)


def minimize(
    system: System,
    potential,
    max_steps: int = 200,
    force_tol: float = 0.05,
    max_disp: float = 0.05,
    initial_step: float = 0.01,
    skin: float = 0.4,
) -> MinimizeResult:
    """Relax ``system`` in place; returns the convergence record.

    Parameters
    ----------
    force_tol:
        Converged when max |F| component falls below this (eV/Å).
    max_disp:
        Per-iteration displacement cap in Å (stability for stiff cores).
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    verlet = VerletList(model_cutoff(potential), skin=skin, half=potential.half_list)
    step = float(initial_step)
    energies = []
    e, forces = potential.energy_and_forces(system, verlet.get(system))
    energies.append(e)
    converged = False
    for _ in range(max_steps):
        fmax = np.abs(forces).max()
        if fmax < force_tol:
            converged = True
            break
        disp = step * forces
        norm = np.abs(disp).max()
        if norm > max_disp:
            disp *= max_disp / norm
        trial = system.positions + disp
        old = system.positions
        system.positions = trial
        e_new, f_new = potential.energy_and_forces(system, verlet.get(system))
        if e_new < e:
            e, forces = e_new, f_new
            energies.append(e)
            step *= 1.2
        else:
            # Backtrack: restore and shrink the step.
            system.positions = old
            step *= 0.5
            if step < 1e-6:
                break
    return MinimizeResult(
        energies=np.asarray(energies),
        n_iterations=len(energies) - 1,
        converged=converged,
        max_force=float(np.abs(forces).max()),
    )


def sample_md_frames(
    system: System,
    potential,
    n_frames: int,
    spacing_steps: int = 10,
    temperature: float = 300.0,
    dt: float = 0.5,
    friction: float = 0.05,
    seed: int = 0,
    equilibration_steps: int = 20,
) -> list:
    """Thermal training frames from MD with ``potential`` (AIMD-style).

    This is how MLIP training sets are actually sampled (the paper's SPICE
    frames are thermal ensembles): run thermostatted dynamics under the
    reference potential and snapshot every ``spacing_steps``.  Gaussian
    jitter, by contrast, produces unphysical stiff-bond strains.
    """
    from .simulation import Simulation
    from .thermostats import LangevinThermostat

    work = system.copy()
    work.seed_velocities(temperature, np.random.default_rng(seed))
    sim = Simulation(
        work,
        potential,
        dt=dt,
        thermostat=LangevinThermostat(temperature, friction=friction, seed=seed + 1),
    )
    if equilibration_steps:
        sim.run(equilibration_steps)
    frames = []
    for _ in range(n_frames):
        sim.run(spacing_steps)
        frames.append(work.copy())
    return frames
