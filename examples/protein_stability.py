#!/usr/bin/env python
"""Biomolecular stability run: the fig. 4 experiment at example scale.

Builds a solvated protein-like chain (the DHFR proxy), trains an Allegro
model with the ZBL core repulsion on perturbed frames of the same system,
runs Langevin MD at 300 K, and reports the backbone RMSD trace and the
temperature series — the two panels of the paper's fig. 4.

Run:  python examples/protein_stability.py
"""

import numpy as np

from repro.data import ReferencePotential, label_frames, solvated_protein
from repro.data.reference import ATOMIC_NUMBERS
from repro.md import (
    LangevinThermostat,
    Simulation,
    minimize,
    rmsd,
    sample_md_frames,
)
from repro.models import AllegroConfig, AllegroModel
from repro.nn import TrainConfig, Trainer


def main() -> None:
    print("1. building + relaxing a solvated protein-like chain ...")
    ps = solvated_protein(n_residues=3, padding=3.5, seed=1)
    system = ps.system
    reference = ReferencePotential()
    res = minimize(system, reference, max_steps=150, force_tol=0.3)
    print(f"   {system.n_atoms} atoms "
          f"({len(ps.protein_indices)} protein, rest explicit water); "
          f"relaxed in {res.n_iterations} steps to max|F| = {res.max_force:.2f} eV/Å")

    print("2. sampling thermal frames (AIMD-style) and training Allegro (+ZBL) ...")
    rng = np.random.default_rng(3)
    train_systems = sample_md_frames(
        system, reference, n_frames=6, spacing_steps=8, temperature=300.0, seed=3
    )
    frames = label_frames(train_systems)
    model = AllegroModel(
        AllegroConfig(
            n_species=4,
            n_tensor=4,
            latent_dim=24,
            two_body_hidden=(24,),
            latent_hidden=(32,),
            edge_energy_hidden=(16,),
            r_cut=3.5,
            avg_num_neighbors=14.0,
            zbl=True,
            atomic_numbers=ATOMIC_NUMBERS,
        )
    )
    trainer = Trainer(model, frames, config=TrainConfig(lr=4e-3, batch_size=3))
    trainer.fit(epochs=10, verbose=True)
    trainer.ema.swap()

    print("3. NVT MD at 300 K, tracking backbone RMSD ...")
    md_system = system.copy()
    md_system.seed_velocities(300.0, rng)
    sim = Simulation(
        md_system,
        model,
        dt=0.5,
        thermostat=LangevinThermostat(300.0, friction=0.02, seed=5),
    )
    # The observable is folded as the run goes; no frame is kept.
    ref = system.positions[ps.backbone_indices]
    rmsds = []  # (time fs, backbone RMSD Å), every 10 steps

    def sample(step, sim):
        if step % 10 == 0:
            r = rmsd(sim.system.positions[ps.backbone_indices], ref)
            rmsds.append((step * sim.integrator.dt, r))

    sim.add_callback(sample)
    result = sim.run(150)

    print("\n   time (fs)   RMSD (Å)   T (K)")
    for t, r in rmsds:
        temp = result.temperatures[min(int(t / 0.5) - 1, len(result.temperatures) - 1)]
        print(f"   {t:8.1f}   {r:8.3f}   {temp:6.0f}")
    print(f"\n   throughput: {result.timesteps_per_second:.2f} timesteps/s "
          "(paper fig. 4 runs >3 ns on Perlmutter)")


if __name__ == "__main__":
    main()
