"""repro — reproduction of "Scaling the Leading Accuracy of Deep Equivariant
Models to Biomolecular Simulations of Realistic Size" (SC '23).

Subpackages
-----------
autodiff
    Reverse-mode automatic differentiation on numpy (PyTorch substitute),
    with Tensor-valued gradients so force-matching double backprop is exact.
equivariant
    O(3) irreps, Wigner 3j, spherical harmonics, the paper's strided layout
    and fused tensor product (e3nn substitute + §V-B kernel innovations).
nn
    MLPs, radial bases, optimizers, EMA, the §VI-D force-matching trainer.
models
    The Allegro potential and its baselines (NequIP-style MPNN,
    DeepMD-style invariant, classical FF, LJ/Morse/ZBL).
md
    Cells, neighbor lists, integrators, thermostats, observables,
    trajectories — the single-process MD engine.
parallel
    Spatial domain decomposition over a byte-counting virtual cluster
    (LAMMPS+MPI substitute) and the calibrated A100 performance model.
perf
    Mixed-precision emulation (Table IV), caching-allocator + padding
    simulation (fig. 5), timing utilities.
data
    Synthetic water/ice/molecule/protein generators and the many-body
    analytic reference potential that labels them (DFT substitute).
serve
    Batched force-evaluation service over the compiled engine: model
    registry, capacity-bucketed plan cache, micro-batching, worker pool
    with backpressure, deadline-aware QoS with priority load shedding,
    and serving metrics.
health
    The serving health state machine (``HEALTHY → DEGRADED → SHEDDING →
    DRAINING``) with hysteresis thresholds and dwell times, driven by
    queue depth and breaker state and honored by serve admission.
obs
    Unified observability: the metrics registry (counters, gauges,
    histograms, labeled series), hierarchical span tracing with bounded
    buffers, timing helpers, and deterministic JSON export — the stats
    substrate shared by md, engine, parallel, serve, and training.
tune
    Measured autotuning over the stack's performance knobs: deterministic
    offline searches (skin, padding, batching, plan ladders, process
    grids) scored on real runs, and the persisted ``TuningProfile``
    artifacts that set those knobs once, in config.
traj
    The trajectory data plane: binary chunked store with per-chunk CRCs,
    delta+zlib compression and a footer index; one synchronous writer
    with checkpoint-pinned chunk boundaries (bitwise kill-and-resume);
    single-pass streaming analysis (MSD/VACF/RDF/thermo).
"""

__version__ = "0.1.0"

__all__ = [
    "autodiff",
    "equivariant",
    "nn",
    "models",
    "md",
    "parallel",
    "perf",
    "data",
    "serve",
    "health",
    "obs",
    "tune",
    "traj",
]
