"""Fig. 5 — input padding stabilizes performance.

Paper: without padding, per-step throughput fluctuates for thousands of
steps because changing input-tensor shapes force PyTorch's caching
allocator into large free/alloc cycles; padding all inputs by 5% (fake
atoms) gives smooth, stable performance from the start.

Reproduction: a real (reduced) water MD run provides the measured per-step
neighbor-pair counts — the shape driver.  The count is that of the pairs
inside the cutoff, the ones the force call evaluates: like the list
pair_allegro keeps from LAMMPS's skinned one, it changes every step, not
only at Verlet-list rebuilds.  The trace is rescaled to a realistic
20k-atoms-per-GPU workload (√N noise scaling, see ``scale_pair_trace``),
then the caching-allocator simulator produces per-step throughput with and
without the 5% padding.

Shape claims: padded throughput is flat from step 0; unpadded throughput
pays whenever the count moves through sizes the cache does not hold, so
its penalty is not confined to warmup — it persists in every window and is
worst in the window whose count spans the widest range.
"""

import numpy as np
import pytest

from conftest import fmt_table
from repro.data import ReferencePotential, water_unit_cell
from repro.md import LangevinThermostat, Simulation
from repro.perf import simulate_md_allocation
from repro.perf.allocator import AllocatorCosts, scale_pair_trace

N_STEPS = 1000


@pytest.fixture(scope="module")
def pair_count_trace():
    """Measured per-step pair counts from a non-equilibrium water start."""
    system = water_unit_cell(seed=51, n_grid=4)  # lattice start: equilibrates
    system.seed_velocities(450.0, np.random.default_rng(53))
    sim = Simulation(
        system,
        ReferencePotential(),
        dt=0.5,
        thermostat=LangevinThermostat(300.0, friction=0.05, seed=55),
        skin=0.3,
    )
    res = sim.run(N_STEPS)
    return res.pair_counts


def test_fig5_padding_stabilizes_throughput(pair_count_trace, reporter, benchmark):
    # Rescale the measured 192-atom trace to 20k atoms/GPU (paper-like).
    pairs = scale_pair_trace(pair_count_trace, 192, 20_000).astype(int)
    kwargs = dict(
        bytes_per_pair=4096.0,
        base_step_time=0.010,
        capacity_bytes=30e9,  # 40 GB A100 minus weights/workspace
        costs=AllocatorCosts(cache_hit=2e-6, device_malloc=5e-3, flush=3e-2),
    )
    unpadded = simulate_md_allocation(pairs, padding=None, **kwargs)
    padded = simulate_md_allocation(pairs, padding=0.05, **kwargs)

    n = len(pairs)
    windows = [(0, 150), (150, 400), (400, 700), (700, n)]
    rows = [
        (
            f"{lo}-{hi}",
            f"{unpadded[lo:hi].mean():.1f}",
            f"{padded[lo:hi].mean():.1f}",
        )
        for lo, hi in windows
    ]
    text = fmt_table(
        ["steps", "no padding (steps/s)", "5% padding (steps/s)"],
        rows,
        title=(
            "Fig. 5 — throughput vs MD step with/without 5% input padding\n"
            f"(pair counts measured from {N_STEPS}-step water MD, rescaled to "
            f"20k atoms/GPU: {pairs.min()}..{pairs.max()} pairs)"
        ),
    )
    reporter(
        "fig5_padding",
        text,
        {
            "pairs": pairs.tolist(),
            "unpadded": unpadded.tolist(),
            "padded": padded.tolist(),
        },
    )

    win_means_unpadded = [unpadded[lo:hi].mean() for lo, hi in windows]
    pad_all = padded.mean()

    # 1. Padded is stable immediately and throughout.
    assert padded[:150].mean() > 0.93 * padded[-150:].mean()
    assert padded.std() < 0.08 * pad_all
    # 2. Unpadded pays a real penalty while shapes drift.
    assert min(win_means_unpadded) < 0.97 * pad_all
    # 3. A per-step count keeps producing new shapes after warmup: every
    #    window pays unpadded, and the worst is the one whose count spans
    #    the widest range (the most size classes cycling through the cache).
    assert all(
        unpadded[lo:hi].mean() < padded[lo:hi].mean() for lo, hi in windows
    ), "the unpadded penalty must persist past warmup"
    spans = [np.ptp(pairs[lo:hi]) for lo, hi in windows]
    assert int(np.argmin(win_means_unpadded)) == int(np.argmax(spans))

    benchmark(lambda: simulate_md_allocation(pairs[:200], padding=0.05, **kwargs))


def test_fig5_real_engine_recaptures(reporter):
    """Fig. 5 on the real compiled engine, not the allocator simulator.

    The engine analogue of a shape change is a re-capture (tape rebuild +
    arena reallocation).  Running the same fluctuating-pair MD through the
    compiled engine with 5% padding vs exact-fit buffers (``padding=None``)
    shows the paper's fix directly: padded capacities absorb every
    pair-count fluctuation after warmup (zero recaptures), while exact-fit
    buffers see a new shape — and re-capture — at almost every step, as
    the in-cutoff pair count the force call sees changes every step,
    exactly like the unpadded TorchScript deployment.
    """
    from repro.md import Cell, System
    from repro.md.neighborlist import VerletList
    from repro.models import LennardJones

    # Supercritical LJ gas (kT > ε): stationary density, so pair counts
    # fluctuate around a fixed mean instead of drifting — padding must
    # absorb fluctuation, not equilibration drift (the paper's padded runs
    # likewise target equilibrated production MD).
    rng = np.random.default_rng(51)
    n = 64
    system = System(
        rng.uniform(0, 7.2, (n, 3)), rng.integers(0, 2, n), Cell.cubic(7.2)
    )
    system.seed_velocities(300.0, rng)
    pot = LennardJones(epsilon=0.02, sigma=1.0, cutoff=3.0, n_species=2)
    sim = Simulation(
        system, pot, dt=0.5, skin=0.3,
        thermostat=LangevinThermostat(300.0, friction=0.05, seed=7),
    )
    # Warm-up: until the in-cutoff pair count's running maximum has held
    # for 1 000 steps.  Each engine warms on it — its first capture is at
    # that maximum — and both continue from the warm-up's last state.
    peak, since, warm_steps = -1, 0, 0
    while since < 1000:
        count = int(sim.run(1).pair_counts[0])
        warm_steps += 1
        if count > peak:
            peak, since, frame = count, 0, sim.system.copy()
        else:
            since += 1
    frame_nl = VerletList(pot.cutoff, skin=0.0, half=pot.half_list).get(frame)
    state = sim.get_state()

    def make_run(padding):
        cm = pot.compile(padding=padding)
        cm.energy_and_forces(frame, frame_nl)
        run = Simulation(
            sim.system.copy(), cm, dt=0.5, skin=0.3,
            thermostat=LangevinThermostat(300.0, friction=0.05, seed=7),
        )
        run.set_state(state)  # the thermostat's stream included
        res = run.run(500)
        stats = cm.stats()
        return {
            "warm_steps": warm_steps,
            "warm_peak": peak,
            "post_warmup_recaptures": stats["n_captures"] - 1,
            "n_replays": stats["n_replays"],
            "steps_per_s": res.timesteps_per_second,
            "pair_min": int(res.pair_counts.min()),
            "pair_max": int(res.pair_counts.max()),
        }

    padded = make_run(0.05)
    unpadded = make_run(None)

    rows = [
        (
            name,
            f"{r['warm_steps']} (max {r['warm_peak']})",
            r["post_warmup_recaptures"],
            f"{r['steps_per_s']:.1f}",
            f"{r['pair_min']}..{r['pair_max']}",
        )
        for name, r in [("5% padding", padded), ("no padding", unpadded)]
    ]
    text = fmt_table(
        ["capacity policy", "warm-up steps", "recaptures after warmup",
         "steps/s", "pairs"],
        rows,
        title="Fig. 5 — compiled-engine recaptures, 500-step fluctuating-pair MD",
    )
    reporter(
        "fig5_engine_recaptures", text, {"padded": padded, "unpadded": unpadded}
    )

    # Identical physics, so both saw the same pair-count fluctuation.
    assert unpadded["pair_min"] == padded["pair_min"]
    assert unpadded["pair_max"] == padded["pair_max"]
    assert padded["pair_min"] < padded["pair_max"]
    # The acceptance property: 5% headroom ⇒ zero recaptures once warm.
    assert padded["post_warmup_recaptures"] == 0
    # Exact-fit buffers re-capture at (nearly) every step.
    assert unpadded["post_warmup_recaptures"] >= 10
    # ... which costs real throughput.
    assert padded["steps_per_s"] > unpadded["steps_per_s"]
