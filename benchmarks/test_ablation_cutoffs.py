"""Ablation §V-B4 — per-ordered-species-pair cutoffs.

Paper: with cutoffs chosen from the capsid's radial distribution functions
(H→H 3.0 Å, H→C 1.25 Å, H→O 1.25 Å, O→H 3.0 Å, others 4.0 Å), the number
of ordered pairs in liquid water drops ~3× versus the uniform maximum
cutoff, at <2 meV/Å validation force-RMSE cost; Allegro's cost is linear
in ordered pairs, so so is the savings.

Measured here: the ordered-pair reduction with exactly the paper's cutoff
matrix on our water box, the RDF-based justification (H-centered first
peaks are short), and the observed model-evaluation speedup.
"""

import numpy as np

from conftest import fmt_table, small_allegro_config
from repro.data import water_box
from repro.data.reference import SPECIES_INDEX
from repro.md import neighbor_list, ordered_pair_counts, radial_distribution
from repro.models import AllegroModel
from repro.obs import time_callable


def paper_cutoff_matrix() -> np.ndarray:
    """§VI-D: H→H 3.0, H→C 1.25, H→O 1.25, O→H 3.0, all others 4.0 Å."""
    S = 4
    m = np.full((S, S), 4.0)
    H, C, N, O = (SPECIES_INDEX[s] for s in "HCNO")
    m[H, H] = 3.0
    m[H, C] = 1.25
    m[H, N] = 1.25  # N treated like C/O for hydrogen centers
    m[H, O] = 1.25
    m[O, H] = 3.0
    return m


def test_pair_reduction_on_water(reporter, benchmark):
    system = water_box(2, seed=81)  # 1536 atoms of liquid-density water
    matrix = paper_cutoff_matrix()
    full, reduced = ordered_pair_counts(system, matrix)
    ratio = full / reduced
    text = (
        "Ablation §V-B4 — ordered-pair reduction (1536-atom water):\n"
        f"  uniform 4.0 Å cutoff: {full} ordered pairs\n"
        f"  per-ordered-species-pair cutoffs: {reduced} ordered pairs\n"
        f"  reduction: {ratio:.2f}x (paper: ~3x)"
    )
    reporter("ablation_cutoffs", text, {"full": full, "reduced": reduced, "ratio": ratio})
    assert 2.0 < ratio < 4.5, f"expected ~3x pair reduction, got {ratio:.2f}"

    benchmark(lambda: ordered_pair_counts(system, matrix))


def test_rdf_motivates_hydrogen_cutoffs(reporter, benchmark):
    """H→O/H→C first RDF peaks sit near 1 Å: a 1.25 Å ordered cutoff keeps
    the bonded peak while dropping the long tail (the paper chose cutoffs
    from RDFs of the capsid structure)."""
    system = water_box(2, seed=81)
    nl = neighbor_list(system, 4.0)
    i, j = nl.edge_index
    d = nl.distances(system.positions)
    H, O = SPECIES_INDEX["H"], SPECIES_INDEX["O"]
    ho = d[(system.species[i] == H) & (system.species[j] == O)]
    centers, g = radial_distribution(
        ho, system.n_atoms, system.cell.volume, 4.0, n_bins=40
    )
    first_peak = centers[np.argmax(g)]
    reporter(
        "ablation_cutoffs_rdf",
        f"H→O RDF first peak at {first_peak:.2f} Å "
        f"(bonded O–H ≈ 0.96 Å; 1.25 Å ordered cutoff retains it)",
        {"r": centers.tolist(), "g": g.tolist()},
    )
    assert first_peak < 1.25
    benchmark(lambda: neighbor_list(system, 4.0))


def test_speedup_and_cost(reporter, benchmark):
    system = water_box(1, seed=83)
    uniform = AllegroModel(small_allegro_config(r_cut=4.0, seed=7))
    pruned = AllegroModel(
        small_allegro_config(
            r_cut=4.0, per_pair_cutoffs=paper_cutoff_matrix(), seed=7
        )
    )
    nl_u = uniform.prepare_neighbors(system)
    nl_p = pruned.prepare_neighbors(system)
    t_u, _ = time_callable(lambda: uniform.energy_and_forces(system, nl_u), repeat=2)
    t_p, _ = time_callable(lambda: pruned.energy_and_forces(system, nl_p), repeat=2)
    text = fmt_table(
        ["variant", "ordered pairs", "eval time (ms)"],
        [
            ("uniform 4.0 Å", nl_u.n_edges, f"{t_u * 1e3:.0f}"),
            ("per-pair cutoffs", nl_p.n_edges, f"{t_p * 1e3:.0f}"),
        ],
        title="Ablation §V-B4 — evaluation cost scales with ordered pairs",
    )
    reporter("ablation_cutoffs_speed", text)
    assert nl_p.n_edges < nl_u.n_edges
    assert t_p < t_u  # linear-in-pairs cost claim

    benchmark(lambda: pruned.energy_and_forces(system, nl_p))
