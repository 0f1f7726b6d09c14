#!/usr/bin/env python
"""Spatial decomposition and scaling projection: the fig. 6/7 machinery.

Demonstrates the parallel substrate on a real system:

1. decompose a water box across virtual ranks and verify forces are
   *identical* to the serial evaluation (the correctness half of the
   scalability claim),
2. inspect halo sizes and measured communication volume,
3. project paper-scale strong/weak scaling with the calibrated A100
   cluster model.

Run:  python examples/parallel_scaling.py
"""

import numpy as np

from repro.data import BENCHMARK_SYSTEMS, water_box
from repro.models import LennardJones
from repro.parallel import (
    ParallelForceEvaluator,
    PerfModel,
    ProcessGrid,
    strong_scaling_curve,
    weak_scaling_curve,
)


def main() -> None:
    print("1. exact spatial decomposition on a 1536-atom water box")
    system = water_box(2, seed=1)
    lj = LennardJones(epsilon=0.01, sigma=2.5, cutoff=4.0, n_species=4)
    e_serial, f_serial = lj.energy_and_forces(system)
    print(f"   serial:   E = {e_serial:.6f} eV")
    for n_ranks in (2, 4, 8):
        grid = ProcessGrid.create(n_ranks, system.cell)
        evaluator = ParallelForceEvaluator(lj, grid)
        e_par, f_par, stats = evaluator.compute(system.copy())
        err = np.abs(f_par - f_serial).max()
        comm = evaluator.cluster.stats.total_bytes() / 1e3
        print(
            f"   {n_ranks} ranks {grid.dims}: E = {e_par:.6f} eV, "
            f"max |ΔF| = {err:.1e}, ghosts/rank = {stats.n_ghost.mean():.0f}, "
            f"comm = {comm:.0f} kB"
        )
        evaluator.close()  # ranks 1..R-1 run on worker processes

    print("\n2. strong scaling projection (calibrated A100 model, fig. 6)")
    pm = PerfModel()
    for name in ("stmv", "capsid"):
        atoms = BENCHMARK_SYSTEMS[name]
        curve = strong_scaling_curve(pm, atoms, [16, 64, 256, 512, 1024, 1280])
        pts = ", ".join(f"{n}n: {r:.1f}/s" for n, r in curve)
        print(f"   {name} ({atoms:,} atoms): {pts}")

    print("\n3. weak scaling projection (fig. 7)")
    for apn in (25_000, 100_000):
        curve = weak_scaling_curve(pm, apn, [1, 64, 1280])
        effs = ", ".join(f"{n}n: {e * 100:.0f}%" for n, _, e in curve)
        print(f"   {apn // 1000}k atoms/node: {effs}")


if __name__ == "__main__":
    main()
