"""Fig. 4 — ns-stability of protein MD: backbone RMSD and temperature.

Paper: >3 ns Langevin MD of solvated DHFR and factor IX with the trained
Allegro potential; backbone RMSD stays bounded (≈1–2 Å plateau) and the
temperature holds at the 300 K thermostat setting.

Reduced reproduction pipeline (the standard MLIP workflow the paper's
model went through, at small scale):

1. build a solvated protein-like chain (the DHFR proxy, ~180 atoms),
2. relax it with the reference potential (structure preparation),
3. sample thermal training frames from reference-potential MD at 300 K
   (AIMD-style data, as SPICE frames are thermal ensembles),
4. train Allegro (+ ZBL core repulsion, §VI-D) by force matching,
5. run NVT MD with the *trained Allegro* and track backbone RMSD + T.

Asserted shape: RMSD bounded and plateauing (no unfolding/blow-up — the
instability generic MLIPs are notorious for), temperature at the
thermostat setting, finite energies throughout.
"""

import numpy as np
import pytest

from conftest import fmt_table, small_allegro_config
from repro.data import ReferencePotential, label_frames, solvated_protein
from repro.data.reference import ATOMIC_NUMBERS
from repro.md import (
    LangevinThermostat,
    Simulation,
    minimize,
    rmsd,
    sample_md_frames,
)
from repro.models import AllegroModel
from repro.nn import TrainConfig, Trainer


@pytest.fixture(scope="module")
def protein_md():
    ps = solvated_protein(n_residues=3, padding=3.5, seed=41)
    system = ps.system
    reference = ReferencePotential()

    # Structure preparation: relax the generated structure so MD does not
    # start by releasing construction strain as heat.
    minimize(system, reference, max_steps=150, force_tol=0.3)

    # Thermal training frames from reference-potential MD (AIMD-style).
    train_systems = sample_md_frames(
        system, reference, n_frames=12, spacing_steps=8, temperature=300.0, seed=43
    )
    frames = label_frames(train_systems)

    model = AllegroModel(
        small_allegro_config(
            latent_dim=32,
            two_body_hidden=(32,),
            latent_hidden=(48,),
            zbl=True,
            atomic_numbers=ATOMIC_NUMBERS,
            seed=11,
        )
    )
    trainer = Trainer(
        model,
        frames,
        config=TrainConfig(
            lr=5e-3,
            batch_size=4,
            seed=11,
            lr_schedule=lambda e: 5e-3 * (0.5 if e >= 18 else 1.0),
        ),
    )
    trainer.fit(epochs=25)
    trainer.ema.swap()
    train_rmse = trainer.evaluate(frames[:3])["force_rmse"] * 1000.0

    md_system = system.copy()
    md_system.seed_velocities(300.0, np.random.default_rng(47))
    sim = Simulation(
        md_system,
        model,
        dt=0.5,
        thermostat=LangevinThermostat(300.0, friction=0.05, seed=13),
    )
    # Backbone RMSD folded every 10 steps as the run goes; no frame is kept.
    backbone = ps.backbone_indices
    ref = system.positions[backbone]
    samples = []  # (time fs, RMSD Å)

    def sample(step, sim):
        if step % 10 == 0:
            samples.append(
                (step * sim.integrator.dt, rmsd(sim.system.positions[backbone], ref))
            )

    sim.add_callback(sample)
    result = sim.run(300)
    return system, samples, result, train_rmse


def test_fig4_rmsd_and_temperature_stability(protein_md, reporter, benchmark):
    initial, samples, result, train_rmse = protein_md
    times_fs, rmsds = (np.array(column) for column in zip(*samples))
    times_ps = times_fs / 1000.0

    rows = [(f"{t:.3f}", f"{r:.2f}") for t, r in zip(times_ps[::3], rmsds[::3])]
    text = fmt_table(
        ["time (ps)", "backbone RMSD (Å)"],
        rows,
        title=(
            "Fig. 4 — protein backbone RMSD under trained-Allegro NVT MD "
            "(reduced: 0.15 ps of a 3-residue solvated chain; paper: >3 ns DHFR)"
        ),
    )
    mean_T = result.temperatures[len(result.temperatures) // 3 :].mean()
    text += (
        f"\n\ntraining-set force RMSE: {train_rmse:.0f} meV/Å"
        f"\nmean temperature (last 2/3): {mean_T:.0f} K (thermostat 300 K)"
    )
    reporter(
        "fig4_stability",
        text,
        {
            "times_ps": times_ps.tolist(),
            "rmsd": rmsds.tolist(),
            "temperature": result.temperatures.tolist(),
        },
    )

    # Shape claims: bounded RMSD (no unfolding/explosion), plateau, stable T.
    assert np.isfinite(rmsds).all()
    assert rmsds.max() < 2.0, "backbone RMSD must stay bounded (paper fig. 4 top)"
    third = len(rmsds) // 3
    late_growth = rmsds[-third:].max() - rmsds[-third:].min()
    assert late_growth < 0.5, "RMSD must plateau, not diverge"
    assert abs(mean_T - 300.0) < 90.0, "temperature must hold near 300 K"
    assert np.isfinite(result.potential_energies).all()

    # Timing anchor: one MD step of the protein system.
    model = AllegroModel(
        small_allegro_config(zbl=True, atomic_numbers=ATOMIC_NUMBERS, seed=11)
    )
    sim = Simulation(initial.copy(), model, dt=0.5)
    benchmark.pedantic(lambda: sim.run(1), rounds=2, iterations=1)
